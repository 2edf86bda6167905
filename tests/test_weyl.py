import itertools
import random
from fractions import Fraction
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyljet.series import SeriesContext, SeriesError, TruncatedSeries, compose, invert_map
from weyljet.weyl import (KGroupElement, LieElement, NonTerminatingAdError,
                          NormalOperator, WeylAlgebra, _multi_indices, commutator,
                          exp_ad, exp_lie_apply, k_conjugate, lie_classify,
                          moyal_star, operator_from_action, poisson_bracket,
                          weyl_quantize)

from test_series import exp_second_order_by_powers


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


def test_star_of_monomials_matches_closed_form_exactly():
    """u^a v^b * u^c v^d = sum over k, l of (i/2)^k (-i/2)^l C(b, k) (c)_k
    C(a, l) (d)_l u^(a+c-k-l) v^(b+d-k-l) h^(k+l), summed in exact
    Gaussian rationals: the products' dyadic coefficients are exact in
    floating point, so the two must agree bit for bit."""
    A = WeylAlgebra(1, 12)
    for (a, b), (c, d) in [((3, 2), (2, 3)), ((0, 4), (4, 1)), ((2, 2), (2, 2))]:
        expected = {}
        for k in range(min(b, c) + 1):
            for l in range(min(a, d) + 1):
                r = Fraction((-1) ** l * comb(b, k) * perm(c, k) * comb(a, l) * perm(d, l),
                             2 ** (k + l))
                re, im = [(r, 0), (0, r), (-r, 0), (0, -r)][(k + l) % 4]  # i^(k+l)
                e = (a + c - k - l, b + d - k - l, k + l)
                old = expected.get(e, (0, 0))
                expected[e] = (old[0] + re, old[1] + im)
        got = moyal_star(A, A.ctx.monomial((a, b, 0)), A.ctx.monomial((c, d, 0)))
        assert {e: (Fraction(z.real), Fraction(z.imag)) for e, z in got.terms.items()} \
            == {e: z for e, z in expected.items() if z != (0, 0)}


def on_diagonal_by_doubling(A, f, g, pairs):
    """exp(h sum c d_a d_b) f g on the diagonal through a doubled context:
    g's jets renamed to copies, the product taken there, contracted by the
    power sum of the operator (not the rung rule the products share) and
    renamed back."""
    jets = A.x + A.xi
    copy = {v: f"_c{v}" for v in jets}
    D = SeriesContext(A.ctx.variables + tuple(copy.values()), A.cap)
    fg = f.map_vars({}, D) * g.map_vars(copy, D)
    contracted = exp_second_order_by_powers(fg, [(a, copy[b], c) for a, b, c in pairs])
    return contracted.map_vars({c: v for v, c in copy.items()}, A.ctx)


@st.composite
def weyl_pair(draw):
    A = WeylAlgebra(draw(st.integers(1, 2)), draw(st.integers(3, 6)))

    def symbol():
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            exp = tuple(draw(st.integers(0, 3)) for _ in range(2 * A.n))
            terms[exp + (draw(st.integers(-1, 1)),)] = complex(draw(st.floats(-2, 2)),
                                                               draw(st.floats(-2, 2)))
        return TruncatedSeries(A.ctx, terms)
    return A, symbol(), symbol()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(weyl_pair())
def test_products_match_the_doubled_context_route(afg):
    A, f, g = afg
    star_pairs = ([(v, u, 0.5j) for u, v in zip(A.x, A.xi)]
                  + [(u, v, -0.5j) for u, v in zip(A.x, A.xi)])
    op_pairs = [(v, u, 1j) for u, v in zip(A.x, A.xi)]
    for got, want in [
            (moyal_star(A, f, g), on_diagonal_by_doubling(A, f, g, star_pairs)),
            (NormalOperator(A, f).compose(NormalOperator(A, g)).symbol,
             on_diagonal_by_doubling(A, f, g, op_pairs))]:
        assert got.distance(want) <= 1e-12 * max(1.0, got.max_abs(), want.max_abs())


def test_bilinear_products_check_the_algebra():
    A, B = WeylAlgebra(1, 4), WeylAlgebra(1, 5)
    for product in (lambda f, g: moyal_star(A, f, g),
                    lambda f, g: NormalOperator(A, f).compose(NormalOperator(A, g))):
        with pytest.raises(SeriesError, match="cap/context mismatch"):
            product(A.var("u1"), B.var("v1"))


def test_multi_indices_of_each_total_once():
    for n in (1, 2, 3):
        for t in range(6):
            want = [a for a in itertools.product(range(t + 1), repeat=n) if sum(a) == t]
            assert sorted(_multi_indices(n, t)) == want


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
        # (1/ih)[f, g] mod h is the leading term of the deformation
        lead = LieElement(A, f).ad(g).filter_degree(["h"], lambda d: d == 0)
        pb = poisson_bracket(A, f, g)
        pb0 = pb.filter_degree(["h"], lambda d: d == 0)
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
        assert weyl_quantize(A, w).to_weyl().is_close(w, 1e-11)


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
    with pytest.raises(NonTerminatingAdError, match="did not terminate"):
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
    # with no multiplier exponent, exp(q) = exp(0) = 1
    assert k.multiplier() == k.half_density_factor()


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


def test_k_homomorphism_and_unit_inverse_hold_to_rounding():
    # a coefficient near 1e-3 in the image makes small intermediate terms
    # that later products scale up: no cutoff may drop them
    rng = random.Random(3)
    A = algebra(cap=6)
    u = A.var("u1")
    k = KGroupElement(A, {"u1": -1.1913 * u - 8.74e-4 * u * u}, 0.0938 * u - 0.152 * u * u)
    for _ in range(10):
        f, g = (rand_weyl(A, rng, degree=2, nterms=3) + A.hbar() * rng.uniform(-1, 1)
                for _ in range(2))
        lhs = k_conjugate(k, moyal_star(A, f, g))
        rhs = moyal_star(A, k_conjugate(k, f), k_conjugate(k, g))
        assert lhs.distance(rhs) < 1e-13
    x = 49 + u
    assert (x * x.unit_inverse()).is_close(A.one(), 1e-14)


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e6])
def test_input_checks_are_scale_free(s):
    A = algebra()
    u = A.var("u1")
    KGroupElement(A, {"u1": (u + 0.3 * u * u) * s})
    with pytest.raises(SeriesError, match="constant term"):
        KGroupElement(A, {"u1": (u + 1e-3) * s})
    c = SeriesContext(["u1", "u2", "h"], 4)
    inv = invert_map({v: c.variable(v) * s for v in ("u1", "u2")})
    assert all(inv[v].is_close(c.variable(v) * (1 / s), 1e-15 / s) for v in ("u1", "u2"))
    assert compose(A.var("u1", 2), {"u1": u * s}) == A.ctx.monomial({"u1": 2}, s * s)


def test_k_group_element_validates_its_images():
    A = algebra(n=2)
    with pytest.raises(SeriesError, match="missing"):
        KGroupElement(A, {"u1": A.var("u1")})
    X = A.extended(2)
    with pytest.raises(SeriesError, match="context"):
        KGroupElement(A, {"u1": X.var("u1"), "u2": X.var("u2")})
    with pytest.raises(SeriesError, match="context"):
        KGroupElement(A, {v: A.var(v) for v in A.x}, X.ctx.monomial({"u1": 2}, 0.5))


def test_k_group_element_rejects_images_of_other_variables():
    A = WeylAlgebra(1, 4)
    u1 = A.var("u1")
    with pytest.raises(SeriesError, match="stray for \\['u7', 'v1'\\]"):
        KGroupElement(A, {"u1": 1.2 * u1, "v1": u1, "u7": u1})


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


def test_unit_sums_reject_arguments_that_truncation_does_not_end():
    # u1^2 h^-1 weighs 0, so no power of it reaches past the cap
    A = algebra(cap=6)
    x = 1 + A.var("u1", 2) * A.hbar(-1)
    for root in (x.unit_inverse, x.unit_sqrt):
        with pytest.raises(SeriesError, match="degree <= 0"):
            root()


def rand_k(A, rng):
    """A K element with a diagonally dominant linear part and random
    quadratic and cubic corrections to the map and the multiplier."""
    def position_terms(degrees):
        return sum((A.ctx.monomial(dict(zip(A.x, e)), rng.uniform(-0.5, 0.5))
                    for e in itertools.product(range(4), repeat=A.n) if sum(e) in degrees),
                   A.zero())
    images = {v: A.var(v) * rng.uniform(0.6, 1.4) + position_terms({1, 2, 3}) * 0.2
              for v in A.x}
    return KGroupElement(A, images, q=position_terms({1, 2}))


def rand_position_series(A, rng):
    return sum((A.ctx.monomial(dict(zip(A.x, e)), rng.uniform(-1, 1))
                for e in itertools.product(range(3), repeat=A.n)), A.var(A.x[0]) * A.hbar())


@pytest.mark.parametrize("n", [1, 2])
def test_k_compose_with_acts_as_the_composite(n):
    rng = random.Random(20 + n)
    A = algebra(n, cap=6)
    for _ in range(3):
        k1, k2 = rand_k(A, rng), rand_k(A, rng)
        f = rand_position_series(A, rng)
        assert k1.compose_with(k2).act(f).distance(k1.act(k2.act(f))) < 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_k_inverse_undoes_the_action_at_every_degree(n):
    rng = random.Random(20 + n)
    A = algebra(n, cap=6)
    for _ in range(3):
        k = rand_k(A, rng)
        f = rand_position_series(A, rng)
        assert k.inverse().act(k.act(f)).distance(f) < 1e-8
        assert k.act(k.inverse().act(f)).distance(f) < 1e-8


def test_k_element_makes_its_lift_and_inverse_once():
    A = algebra(cap=4)
    k = rand_k(A, random.Random(5))
    assert A.extended(0) is A
    assert k.extended(0) is k
    assert k.extended(2) is k.extended(2)
    assert k.extended(2).algebra is A.extended(2)
    assert k.inverse() is k.inverse()
    assert k.extended(1).inverse() is k.extended(1).inverse()


def test_conjugations_by_one_k_equal_those_by_fresh_elements():
    # headroom = order + depth of h^-1: 0, 1, 1, 2, 2 and 1 in this order
    A = algebra(cap=4)
    u, v, h = A.var("u1"), A.var("v1"), A.hbar
    symbols = [0.5 * u * u + 0.2 * A.var("u1", 3), u * v + 0.3 * u * u,
               0.4 * u * h(-1) + u * u, v * v + 0.1 * u * v * h(-1),
               0.7 * v + 0.2 * u * h(-2) * A.var("u1", 3) + v * v, u * v * h(-1)]
    for order in (symbols, symbols[::-1]):
        k = rand_k(A, random.Random(7))
        shared = [k_conjugate(k, w) for w in order]
        fresh = [k_conjugate(rand_k(A, random.Random(7)), w) for w in order]
        assert [s.terms for s in shared] == [s.terms for s in fresh]


def rand_symbol(A, rng, with_inverse_h):
    """Five seeded monomials in u, v and h within the cap; with
    ``with_inverse_h`` one of them carries h^-1."""
    w = A.zero()
    powers = [-1] if with_inverse_h else []
    while len(w.terms) < 5:
        e = {v: rng.randint(0, 2) for v in A.x + A.xi}
        e["h"] = powers.pop() if powers else rng.randint(0, 1)
        if 0 <= sum(e[v] for v in A.x + A.xi) + 2 * e["h"] <= A.cap:
            w = w + A.ctx.monomial(e, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return w


@pytest.mark.parametrize("cap", [6, 4])
def test_nilpotent_payload_ties_the_three_routes(cap):
    # (1/ih) u1 v2 generates u2 -> u2 + u1: its adjoint series ends although
    # the payload has a mixed term of degree 2
    rng = random.Random(cap)
    A = WeylAlgebra(2, cap)
    X = LieElement(A, A.var("u1") * A.var("v2"))
    k = KGroupElement(A, {"u1": A.var("u1"), "u2": A.var("u2") + A.var("u1")})
    for trial in range(6):
        w = rand_symbol(A, rng, with_inverse_h=trial % 2 == 1)
        assert exp_ad(X, w).distance(k_conjugate(k, w)) <= 1e-13 * max(1.0, w.max_abs())
    for _ in range(4):
        f = rand_position_series(A, rng)
        assert exp_lie_apply(X, f).distance(k.act(f)) <= 1e-13


@pytest.mark.parametrize("cap", [6, 4])
def test_heisenberg_payload_translates(cap):
    # (1/ih)(0.5 u1 + 0.25 v1) maps w(u, v) to w(u1 + 0.25, v1 - 0.5)
    rng = random.Random(10 + cap)
    A = WeylAlgebra(2, cap)
    Y = LieElement(A, 0.5 * A.var("u1") + 0.25 * A.var("v1"))
    shifted = {"u1": A.var("u1") + 0.25, "v1": A.var("v1") - 0.5}
    for trial in range(4):
        w = rand_symbol(A, rng, with_inverse_h=trial % 2 == 1)
        want = A.zero()
        for e, c in w.terms.items():
            # the h power first, so no partial product passes the cap
            term = A.ctx.monomial({"h": e[A.ctx.index("h")]}, c)
            for v, p in zip(A.x + A.xi, e):
                term = term * (shifted.get(v, A.var(v)) ** p)
            want = want + term
        assert exp_ad(Y, w).distance(want) <= 1e-13 * max(1.0, w.max_abs())

