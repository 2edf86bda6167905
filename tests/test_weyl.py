import random

import pytest

from weyljet.series import SeriesError
from weyljet.weyl import (KGroupElement, LieElement, NonTerminatingAdError,
                          NormalOperator, WeylAlgebra, commutator, exp_ad,
                          exp_lie_apply, k_conjugate, lie_classify,
                          moyal_star, operator_from_action, poisson_bracket,
                          weyl_quantize, weyl_symbol)


def algebra(n=1, cap=6):
    return WeylAlgebra(n, cap)


def rand_weyl(A, rng, degree=4, nterms=6, with_h=True):
    out = A.zero()
    for _ in range(nterms):
        exp = {}
        budget = degree
        for v in A.x + A.xi:
            e = rng.randint(0, budget)
            exp[v] = e
            budget -= e
        if with_h and budget >= 2 and rng.random() < 0.3:
            exp["h"] = 1
        out = out + A.ctx.monomial(exp, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return out


def test_star_x_xi():
    A = algebra()
    u, v = A.var("u1"), A.var("v1")
    got = moyal_star(A, u, v)
    expected = A.ctx.monomial({"u1": 1, "v1": 1}) - 0.5j * A.hbar()
    assert got.is_close(expected, 1e-13)


def test_star_unit():
    A = algebra()
    rng = random.Random(0)
    f = rand_weyl(A, rng)
    assert moyal_star(A, f, A.one()).is_close(f, 1e-13)
    assert moyal_star(A, A.one(), f).is_close(f, 1e-13)


def test_star_second_order_example():
    A = algebra(cap=8)
    f = A.ctx.monomial({"u1": 2})
    g = A.ctx.monomial({"v1": 2})
    got = moyal_star(A, f, g)
    expected = (A.ctx.monomial({"u1": 2, "v1": 2})
                - 2j * A.ctx.monomial({"u1": 1, "v1": 1, "h": 1})
                - 0.5 * A.ctx.monomial({"h": 2}))
    assert got.is_close(expected, 1e-12)


def test_commutator_examples():
    A = algebra()
    u, v = A.var("u1"), A.var("v1")
    assert commutator(A, u, v).is_close(-1j * A.hbar(), 1e-13)
    rng = random.Random(1)
    f = rand_weyl(A, rng)
    assert commutator(A, f, f).max_abs() < 1e-12


def test_poisson_leading_matches_bracket():
    rng = random.Random(2)
    A = WeylAlgebra(2, 6)
    for _ in range(20):
        f = rand_weyl(A, rng, degree=2, with_h=False)
        g = rand_weyl(A, rng, degree=2, with_h=False)
        ih = A.ctx.index("h")
        # (1/ih)[f, g] mod h is the leading term of the deformation
        lead = LieElement(A, f).ad(g).filter_terms(lambda e: e[ih] == 0)
        pb = poisson_bracket(A, f, g)
        pb0 = pb.filter_terms(lambda e: e[ih] == 0)
        assert lead.is_close(pb0, 1e-10)


def test_star_associativity_random():
    rng = random.Random(3)
    for n in (1, 2):
        A = WeylAlgebra(n, 8)
        for _ in range(8):
            f, g, k = (rand_weyl(A, rng, degree=3, nterms=4) for _ in range(3))
            left = moyal_star(A, moyal_star(A, f, g), k)
            right = moyal_star(A, f, moyal_star(A, g, k))
            assert left.distance(right) < 1e-9


def test_quantize_normal_symbol():
    A = algebra()
    w = A.ctx.monomial({"u1": 1, "v1": 1})
    op = weyl_quantize(A, w)
    # sym(u (ih d)) has normal symbol u v + ih/2
    expected = w + 0.5j * A.hbar()
    assert op.symbol.is_close(expected, 1e-13)


def test_quantize_round_trip():
    rng = random.Random(4)
    A = WeylAlgebra(2, 6)
    for _ in range(6):
        w = rand_weyl(A, rng)
        assert weyl_symbol(weyl_quantize(A, w)).is_close(w, 1e-11)


def test_operator_composition_oracle_for_star():
    rng = random.Random(5)
    A = algebra(cap=8)
    for _ in range(8):
        f = rand_weyl(A, rng, degree=3, nterms=4)
        g = rand_weyl(A, rng, degree=3, nterms=4)
        via_ops = weyl_quantize(A, f).compose(weyl_quantize(A, g)).to_weyl()
        assert via_ops.distance(moyal_star(A, f, g)) < 1e-9


def test_operator_apply():
    A = algebra()
    op = weyl_quantize(A, A.ctx.monomial({"v1": 2}))  # (ih d)^2
    f = A.ctx.monomial({"u1": 3})
    got = op.apply(f)
    assert got.is_close(-6 * A.ctx.monomial({"u1": 1, "h": 2}), 1e-13)


def test_operator_from_action_reconstruction():
    rng = random.Random(6)
    A = algebra(cap=6)
    w = rand_weyl(A, rng, degree=2, nterms=5)
    op = weyl_quantize(A, w)
    rebuilt = operator_from_action(A, op.apply, max_order=4)
    assert rebuilt.symbol.distance(op.symbol) < 1e-10


def test_exp_ad_translation():
    # h = (1/ih) c*u acts: v -> v - c, u -> u
    A = algebra()
    c = 0.7
    h = LieElement(A, c * A.var("u1"))
    assert exp_ad(h, A.var("v1")).is_close(A.var("v1") - c * A.one(), 1e-12)
    assert exp_ad(h, A.var("u1")).is_close(A.var("u1"), 1e-12)


def test_exp_ad_automorphism():
    rng = random.Random(7)
    A = algebra(cap=6)
    payload = (A.ctx.monomial({"u1": 3}, 0.3) +
               A.ctx.monomial({"u1": 2, "v1": 1}, 0.2) +
               A.ctx.monomial({"u1": 1, "h": 1}, 0.5))
    h = LieElement(A, payload)
    for _ in range(4):
        f = rand_weyl(A, rng, degree=2, nterms=4)
        g = rand_weyl(A, rng, degree=2, nterms=4)
        lhs = exp_ad(h, moyal_star(A, f, g))
        rhs = moyal_star(A, exp_ad(h, f), exp_ad(h, g))
        assert lhs.distance(rhs) < 1e-9
        # inverse property
        assert exp_ad(LieElement(A, -payload), exp_ad(h, f)).distance(f) < 1e-9


def test_exp_ad_zero_identity():
    A = algebra()
    f = A.ctx.monomial({"u1": 2, "v1": 1})
    assert exp_ad(LieElement(A, A.zero()), f).is_close(f, 0)


def test_exp_ad_non_terminating_rejected():
    A = algebra()
    rotation = A.ctx.monomial({"u1": 1, "v1": 1})
    with pytest.raises(NonTerminatingAdError):
        exp_ad(LieElement(A, rotation), A.var("u1"))


def test_lie_classify_patterns():
    A = algebra()
    f1 = LieElement(A, A.ctx.monomial({"v1": 1, "u1": 2}))
    r1 = lie_classify(f1)
    assert r1["in_lie_p"] and not r1["in_lie_n"]
    f2 = LieElement(A, A.ctx.monomial({"u1": 3}))
    assert not lie_classify(f2)["in_lie_p"]
    f3 = LieElement(A, A.ctx.monomial({"h": 2}))
    r3 = lie_classify(f3)
    assert r3["in_lie_p"] and r3["in_lie_n"]
    # k>=1 patterns and inclusion in Lie(P)
    f4 = LieElement(A, A.ctx.monomial({"u1": 2, "v1": 1}) + A.ctx.monomial({"u1": 1, "h": 1}))
    r4 = lie_classify(f4)
    assert r4["in_k_geq1"] and r4["in_lie_p"]


def test_lie_classify_componentwise():
    A = algebra()
    mixed = LieElement(A, A.ctx.monomial({"v1": 1, "u1": 2}) + A.ctx.monomial({"u1": 3}))
    r = lie_classify(mixed)
    assert not r["in_lie_p"]
    assert r["graded_profile"] == [1]


def test_lie_g_tag_drops_central():
    A = algebra()
    h = LieElement(A, A.ctx.monomial({"h": 1}) + A.var("u1"), tag="g")
    assert h.payload.is_close(A.var("u1"), 0)


def test_k_act_linear_scaling():
    A = algebra()
    k = KGroupElement(A, {"u1": 2 * A.var("u1")})
    f = A.ctx.monomial({"u1": 1})
    got = k.act(f)
    import math
    assert got.is_close(math.sqrt(2) * 2 * A.var("u1"), 1e-12)


def test_k_identity_and_inverse():
    A = algebra(cap=5)
    k = KGroupElement(A, {"u1": A.var("u1") + A.ctx.monomial({"u1": 2}, 0.3)},
                      q=A.ctx.monomial({"u1": 1}, 0.2))
    ki = k.inverse()
    f = A.ctx.monomial({"u1": 2}) + A.var("u1")
    assert ki.act(k.act(f)).distance(f) < 1e-9
    ident = KGroupElement.identity(A)
    assert ident.act(f).is_close(f, 1e-13)


def test_k_conjugate_linear_symplectic():
    A = algebra()
    k = KGroupElement(A, {"u1": 2 * A.var("u1")})
    # conjugation sends the symbol u -> 2u and v -> v/2
    assert k_conjugate(k, A.var("u1")).is_close(2 * A.var("u1"), 1e-12)
    assert k_conjugate(k, A.var("v1")).is_close(0.5 * A.var("v1"), 1e-12)


def test_k_conjugate_star_automorphism():
    rng = random.Random(8)
    A = algebra(cap=6)
    k = KGroupElement(A, {"u1": A.var("u1") + A.ctx.monomial({"u1": 2}, 0.25)},
                      q=A.ctx.monomial({"u1": 2}, 0.1))
    for _ in range(4):
        f = rand_weyl(A, rng, degree=2, nterms=3)
        g = rand_weyl(A, rng, degree=2, nterms=3)
        lhs = k_conjugate(k, moyal_star(A, f, g))
        rhs = moyal_star(A, k_conjugate(k, f), k_conjugate(k, g))
        assert lhs.distance(rhs) < 1e-8


def test_exp_lie_apply_matches_exp_ad_conjugation():
    # exp(h-hat) (w-hat) exp(-h-hat) f agrees with quantize(exp_ad(h,w)) f
    rng = random.Random(9)
    A = algebra(cap=6)
    payload = A.ctx.monomial({"u1": 3}, 0.4) + A.ctx.monomial({"u1": 2, "v1": 1}, 0.3)
    h = LieElement(A, payload)
    w = rand_weyl(A, rng, degree=2, nterms=4)
    direct_op = weyl_quantize(A, exp_ad(h, w))
    op = weyl_quantize(A, w)
    for f in (A.one(), A.var("u1"), A.ctx.monomial({"u1": 2})):
        via_exp = exp_lie_apply(h, op.apply(exp_lie_apply(LieElement(A, -payload), f)))
        assert via_exp.distance(direct_op.apply(f)) < 1e-8
