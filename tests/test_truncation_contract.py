"""Property tests of the truncation contract on Weyl symbols and Gaussian
jets that carry inverse powers of h: every term of weighted degree <= cap
is computed, whatever the powers of h in the inputs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyljet.series import compose
from weyljet.weil import GaussianJet, jet_context
from weyljet.weyl import (KGroupElement, LieElement, NormalOperator, WeylAlgebra, commutator,
                          k_conjugate, moyal_star, weyl_quantize)

from test_series import tuple_shift
from test_weil import letters, rand_jet, word_outcome

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def algebras(draw):
    return WeylAlgebra(draw(st.sampled_from([1, 2])), draw(st.integers(3, 6)))


@st.composite
def symbols(draw, A, momenta=True, max_terms=4):
    """Sums of monomials u^a v^b h^k with k in {-1, 0, 1} and small
    Gaussian-integer coefficients; high jet degrees get h^-1 so that they
    fit under the cap.  Every term keeps weighted degree >= 0, the range
    on which truncation at the cap is a ring quotient."""
    names = A.x + (A.xi if momenta else ())
    out = A.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        exp = {v: draw(st.integers(0, 3)) for v in names}
        jets = sum(exp.values())
        k = max(draw(st.sampled_from([-1, 0, 1])), -(jets // 2))
        if jets + 2 * k > A.cap and jets >= 2:
            k = -1
        exp["h"] = k
        re, im = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        out = out + A.ctx.monomial(exp, complex(re, im))
    return out


@st.composite
def position_images(draw, A):
    """Images for a random subset of the position jets: position-only, with
    every term of weighted degree >= 1 and small Gaussian-integer
    coefficients."""
    images = {}
    for v in draw(st.lists(st.sampled_from(A.x), min_size=1, unique=True)):
        image = A.zero()
        for _ in range(draw(st.integers(1, 3))):
            exp = {u: draw(st.integers(0, 2)) for u in A.x}
            if not any(exp.values()):
                exp[v] = 1
            re, im = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            image = image + A.ctx.monomial(exp, complex(re, im))
        images[v] = image
    return images


def assert_close(a, b):
    scale = max(1.0, a.max_abs(), b.max_abs())
    assert a.distance(b) <= 1e-10 * scale


def test_star_keeps_terms_reached_through_inverse_powers_of_h():
    A = WeylAlgebra(1, 4)
    hinv = A.hbar(-1)
    got = moyal_star(A, A.var("u1", 3) * hinv, A.var("v1", 3) * hinv)
    # third order of exp(-(ih/2) d_u d_v): (-i/2)^3 / 3! * 3! * 3! * h^3 * h^-2
    assert abs(got.coefficient({"h": 1}) - 0.75j) < 1e-12


@PROPERTY
@given(st.data())
def test_star_cap_invariance(data):
    A = data.draw(algebras())
    f, g = data.draw(symbols(A)), data.draw(symbols(A))
    wide = moyal_star(A.extended(4), A.lift(f, 4), A.lift(g, 4))
    assert_close(moyal_star(A, f, g), A.lower(wide))


@PROPERTY
@given(st.data())
def test_ad_matches_the_bracket_divided_with_headroom(data):
    # ad w = (1/ih)[payload, w]; the bracket taken at cap + 2 and divided by
    # h afterwards reaches every term that lands at degree <= cap
    A = data.draw(algebras())
    payload, w = data.draw(symbols(A)), data.draw(symbols(A))
    wide = commutator(A.extended(2), A.lift(payload, 2), A.lift(w, 2))
    expected = A.lower(wide * -1j * A.extended(2).hbar(-1))
    assert_close(LieElement(A, payload).ad(w), expected)


@PROPERTY
@given(st.data())
def test_star_associativity_and_unit(data):
    A = data.draw(algebras())
    f, g, k = (data.draw(symbols(A, max_terms=3)) for _ in range(3))
    left = moyal_star(A, moyal_star(A, f, g), k)
    right = moyal_star(A, f, moyal_star(A, g, k))
    assert_close(left, right)
    assert_close(moyal_star(A, f, A.one()), f)
    assert_close(moyal_star(A, A.one(), f), f)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("cap", [2, 3, 4, 5])
def test_canonical_commutation(n, cap):
    A = WeylAlgebra(n, cap)
    for j, (uj, vj) in enumerate(zip(A.x, A.xi)):
        for k, (uk, vk) in enumerate(zip(A.x, A.xi)):
            expected = -1j * A.hbar() if j == k else A.zero()
            assert_close(commutator(A, A.var(uj), A.var(vk)), expected)
            assert commutator(A, A.var(uj), A.var(uk)).is_zero()
            assert commutator(A, A.var(vj), A.var(vk)).is_zero()
            # the same relation one filtration step down: [u h^-1, v] = -i
            scaled = commutator(A, A.var(uj) * A.hbar(-1), A.var(vk))
            assert_close(scaled, -1j * A.one() if j == k else A.zero())


@PROPERTY
@given(st.data())
def test_operator_composition_matches_star(data):
    A = data.draw(algebras())
    f, g = data.draw(symbols(A)), data.draw(symbols(A))
    composed = weyl_quantize(A, f).compose(weyl_quantize(A, g))
    assert_close(composed.to_weyl(), moyal_star(A, f, g))


def apply_term_by_term(op, f):
    """sum over symbol terms c u^a v^b h^m of c u^a h^m (ih)^|b| d_u^b f."""
    A = op.algebra
    xi_idx = [A.ctx.index(v) for v in A.xi]
    out = A.zero()
    for e, c in op.symbol.terms.items():
        df = f
        for u, i in zip(A.x, xi_idx):
            for _ in range(e[i]):
                df = df.diff(u)
        order = sum(e[i] for i in xi_idx)
        rest = tuple(0 if i in xi_idx else p for i, p in enumerate(e))
        out = out + tuple_shift(A.ctx.monomial(rest, c) * df * 1j ** order, "h", order)
    return out


@PROPERTY
@given(st.data())
def test_operator_apply_matches_term_by_term(data):
    A = data.draw(algebras())
    op = NormalOperator(A, data.draw(symbols(A)))
    f = data.draw(symbols(A, momenta=False))
    assert_close(op.apply(f), apply_term_by_term(op, f))


@PROPERTY
@given(st.data())
def test_compose_cap_invariance(data):
    # a term with h^-1 in its unlisted part reaches the cap through image
    # powers of degree up to cap + 2
    A = data.draw(algebras())
    f, images = data.draw(symbols(A)), data.draw(position_images(A))
    wide = compose(A.lift(f, 4), {v: A.lift(g, 4) for v, g in images.items()})
    assert_close(compose(f, images), A.lower(wide))


def k_element(A):
    """A fixed nonlinear element of K with a multiplier, at n = 1 or 2."""
    u = A.var
    if A.n == 1:
        images = {"u1": 1.2 * u("u1") + 0.3 * u("u1", 2)}
        q = 0.2 * u("u1")
    else:
        images = {"u1": 1.2 * u("u1") + 0.3 * u("u2", 2),
                  "u2": 0.9 * u("u2") + 0.4 * u("u1") * u("u2")}
        q = 0.2 * u("u1") - 0.1 * u("u2", 2)
    return KGroupElement(A, images, q)


def assert_conjugation_cap_invariant(A, w):
    k = k_element(A)
    assert_close(k_conjugate(k, w), A.lower(k_conjugate(k.extended(6), A.lift(w, 6))))


@pytest.mark.parametrize("n, cap", [(1, 4), (1, 6), (2, 4)])
def test_k_conjugate_cap_invariance_with_inverse_powers_of_h(n, cap):
    A = WeylAlgebra(n, cap)
    h, u, v = A.hbar, A.var("u1"), A.var("v1")
    # every term has degree >= 0: h^-2 reaches the cap through the images'
    # powers of degree up to cap + 4, which compose builds
    w = 0.8 * A.var("u1", 4) * h(-2) + 0.5 * A.var("u1", 2) * h(-1) + u
    assert_conjugation_cap_invariant(A, w)
    # terms of degree -1 and -2 pull the top terms of K's multiplier, cut
    # at the cap, under it: the headroom covers them
    w = u * h(-1) + 0.5 * u * v * h(-2) + v
    assert_conjugation_cap_invariant(A, w)
    # every term has degree 0, but their parts in u and h have degree -1
    # and -2: the coefficients u h^-1 and h^-1 of v and v^2 pull the top
    # terms of the conjugated momenta, cut at the cap, under it unless the
    # headroom is read from the (u, h) part, not from the degree
    assert_conjugation_cap_invariant(A, u * v * h(-1) + v * v * h(-1))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_k_conjugate_cap_invariance(data):
    n = data.draw(st.sampled_from([1, 2]))
    A = WeylAlgebra(n, 6 if n == 1 else 4)
    assert_conjugation_cap_invariant(A, data.draw(symbols(A, max_terms=3)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_weil_word_cap_invariance(data):
    # the word's one contraction and one substitution keep every weighted
    # degree: at cap c it is the same word at cap c + 2 lowered to c, h^-1
    # terms of the amplitude included
    n, mode = data.draw(st.sampled_from([1, 2, 3])), data.draw(st.sampled_from(["weil", "weil0"]))
    cap = data.draw(st.integers(2, 6))
    jet = rand_jet(n, mode, random.Random(data.draw(st.integers(0, 10 ** 6))), cap=cap)
    word = data.draw(st.lists(letters(n), min_size=1, max_size=5))
    ctx = jet_context(n, cap + 2)
    lifted = GaussianJet(mode, jet.T, jet.amplitude.map_vars({}, ctx), jet.scalar)
    (narrow, failed), (wide, wide_failed) = word_outcome(word, jet), word_outcome(word, lifted)
    assert failed == wide_failed
    if not failed:
        assert (narrow.T == wide.T).all()
        assert narrow.scalar.laurent == wide.scalar.laurent
        assert_close(narrow.amplitude, wide.amplitude.map_vars({}, jet.ctx))
