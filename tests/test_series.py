import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyljet.series import (NonTerminatingAdError, OscillatoryScalar, SeriesContext,
                            SeriesError, TruncatedSeries, compose, contract_product,
                            exp_second_order, fixed_point, invert_map, is_singular,
                            linear_combination, power_sum)


def ctx1(cap=6):
    return SeriesContext(["u1", "h"], cap)


def weighted_degree(ctx, exp):
    """The weighted degree of an exponent tuple: h weighs 2, every other variable 1."""
    return sum(e * w for e, w in zip(exp, ctx.weights))


def rand_poly(ctx, rng, degree=3, nterms=6):
    terms = {}
    nv = len(ctx.variables)
    for _ in range(nterms):
        exp = [0] * nv
        budget = degree
        for i in range(nv):
            e = rng.randint(0, budget // ctx.weights[i])
            exp[i] = e
            budget -= e * ctx.weights[i]
        terms[tuple(exp)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return ctx.from_terms(terms)


def test_difference_of_squares():
    c = ctx1()
    u = c.variable("u1")
    assert ((1 + u) * (1 - u)).is_close(1 - u * u)


def test_truncation_contract():
    c = ctx1(cap=2)
    u = c.variable("u1")
    s = u * (c.one() + u)          # u + u^2, cap 2
    # u * (u + u^2) = u^2 + u^3 -> u^3 dropped at cap 2
    assert (u * s).is_close(c.monomial({"u1": 2}, 1.0))
    assert (u * s).max_degree() <= 2


def test_multiply_against_naive_expansion():
    # a context without h multiplies too, exactly on Fraction coefficients
    rng = random.Random(7)
    for c, exact in ((SeriesContext(["u1", "u2", "h"], 8), False),
                     (SeriesContext(["u1", "u2"], 8), False),
                     (SeriesContext(["u1", "u2"], 8), True)):
        for _ in range(20):
            a, b = (rand_poly(c, rng) for _ in range(2))
            if exact:
                a, b = (c.from_terms({e: Fraction(round(4 * v.real), 3)
                                      for e, v in s.terms.items()}) for s in (a, b))
            naive = {}
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    if weighted_degree(c, e) <= c.cap:
                        naive[e] = naive.get(e, 0) + c1 * c2
            if exact:
                assert_exact(a * b)
                assert a * b == c.from_terms(naive)
            else:
                assert (a * b).is_close(c.from_terms(naive), 1e-12)


def test_multiplication_insertion_order_independent():
    c = ctx1()
    t1 = {(1, 0): 2.0, (0, 1): 1.0, (2, 0): -0.5}
    s1 = c.from_terms(t1)
    s2 = c.from_terms(dict(reversed(list(t1.items()))))
    assert s1.is_close(s2, 0)
    assert (s1 * s1).is_close(s2 * s2, 0)


def test_associativity_commutativity_random():
    rng = random.Random(3)
    c = SeriesContext(["u1", "u2", "h"], 6)
    for _ in range(10):
        a, b, d = (rand_poly(c, rng) for _ in range(3))
        assert ((a * b) * d).is_close(a * (b * d), 1e-10)
        assert (a * b).is_close(b * a, 1e-12)


def test_compose_weighted():
    c = ctx1(cap=4)
    f = c.monomial({"u1": 2})
    g = c.variable("u1") + c.variable("h")
    out = compose(f, {"u1": g})
    expected = (c.monomial({"u1": 2}) + 2 * c.monomial({"u1": 1, "h": 1})
                + c.monomial({"h": 2}))
    assert out.is_close(expected)
    # u1^2 u2 goes to zero with the first factor, u2^4 beyond the cap
    c = SeriesContext(["u1", "u2", "h"], 3)
    u2 = c.variable("u2")
    f = c.monomial({"u1": 2, "u2": 1}) + u2
    assert compose(f, {"u1": u2 * u2, "u2": u2}) == u2


def test_compose_identity_and_associativity():
    rng = random.Random(11)
    c = SeriesContext(["u1", "u2", "h"], 6)
    f = rand_poly(c, rng, degree=3)
    ident = {v: c.variable(v) for v in ("u1", "u2")}
    assert compose(f, ident).is_close(f, 1e-12)
    # associativity against direct expansion on random cubics
    g = {v: rand_poly(c, rng, degree=3, nterms=4).filter_degree(
        c.variables, lambda d: d >= 1) for v in ("u1", "u2")}
    h = {v: rand_poly(c, rng, degree=3, nterms=4).filter_degree(
        c.variables, lambda d: d >= 1) for v in ("u1", "u2")}
    gh = {v: compose(g[v], h) for v in g}
    assert compose(compose(f, g), h).is_close(compose(f, gh), 1e-8)


def test_compose_rejects_constant_terms():
    c = ctx1()
    with pytest.raises(SeriesError):
        compose(c.variable("u1"), {"u1": c.one() + c.variable("u1")})


def test_compose_keeps_terms_reached_through_inverse_powers_of_h():
    c = ctx1(cap=4)
    u = c.variable("u1")
    f = c.monomial({"u1": 3, "h": -1})
    expected = c.from_terms({(3, -1): 1, (4, -1): 3, (5, -1): 3, (6, -1): 1})
    assert compose(f, {"u1": u + u * u}) == expected


def test_compose_takes_images_in_the_context_of_f():
    c = ctx1(cap=4)
    with pytest.raises(SeriesError, match="another context"):
        compose(c.variable("u1"), {"u1": ctx1(cap=5).variable("u1")})


def test_compose_rejects_negative_exponents_on_listed_variables():
    c = ctx1(cap=4)
    f = c.monomial({"u1": 1, "h": -1})
    with pytest.raises(SeriesError, match="negative exponent on listed variable 'h'"):
        compose(f, {"h": c.variable("h")})
    # an unlisted variable carries its negative exponent over
    assert compose(f, {}) == f


def test_power_sum_ends_only_where_a_term_vanishes():
    c = SeriesContext(["u1", "h"], 4)
    u = c.variable("u1")
    # the exponential of u1 with exact coefficients; u1^5 is cut at cap 4
    e = power_sum(c.one(), lambda t, k: t * u * Fraction(1, k), 5, "demo")
    assert e == c.from_terms({(k, 0): Fraction(1, math.factorial(k)) for k in range(5)})
    # the zero term comes at step 5, so four steps do not end the sum
    with pytest.raises(NonTerminatingAdError, match="^demo: did not end$"):
        power_sum(c.one(), lambda t, k: t * u, 4, "demo: did not end")
    with pytest.raises(NonTerminatingAdError, match="^constant$"):
        power_sum(c.one(), lambda t, k: t, 50, "constant")


def test_depends_on_reads_every_exponent_field():
    c = SeriesContext(["u1", "u2", "h"], 4)
    s = c.monomial({"u1": 1, "h": -1}) + c.monomial({"u1": 2})
    assert [s.depends_on(v) for v in c.variables] == [True, False, True]
    assert [c.one().depends_on(v) for v in c.variables] == [False, False, False]
    assert not c.zero().depends_on("u1")


def test_fixed_point_reproduces_invert_map():
    # u1 -> 2 u1 + u2^2, u2 -> u2 + u1 u2: the linear part is diag(2, 1)
    c = SeriesContext(["u1", "u2", "h"], 5)
    u1, u2 = c.variable("u1"), c.variable("u2")
    higher = {"u1": u2 * u2, "u2": u1 * u2}
    x = fixed_point({"u1": 0.5 * u1, "u2": u2}, np.diag([0.5, 1.0]),
                    lambda x: [compose(higher[v], x) for v in ("u1", "u2")])
    inv = invert_map({"u1": 2 * u1 + higher["u1"], "u2": u2 + higher["u2"]})
    assert x.keys() == inv.keys()
    assert all(x[v].distance(inv[v]) <= 1e-15 for v in x)


def test_invert_map_linear():
    c = ctx1()
    h = invert_map({"u1": 2 * c.variable("u1")})
    assert h["u1"].is_close(0.5 * c.variable("u1"))


def test_invert_map_series():
    c = SeriesContext(["u1", "h"], 5)
    g = c.variable("u1") + c.monomial({"u1": 2})
    h = invert_map({"u1": g})
    # iterate and verify g(h) = u to cap
    assert compose(g, h).is_close(c.variable("u1"), 1e-10)
    # known expansion u - u^2 + 2u^3 - 5u^4 + ...
    assert abs(h["u1"].coefficient({"u1": 2}) + 1) < 1e-10
    assert abs(h["u1"].coefficient({"u1": 3}) - 2) < 1e-10


def test_invert_map_round_trip_random():
    rng = random.Random(5)
    c = SeriesContext(["u1", "u2", "h"], 5)
    for _ in range(5):
        imgs = {}
        lin = [[rng.choice([1, 2]), rng.choice([0, 1])],
               [rng.choice([0, 1]), rng.choice([1, 3])]]
        if lin[0][0] * lin[1][1] - lin[0][1] * lin[1][0] == 0:
            lin[0][1] += 1
        for i, v in enumerate(("u1", "u2")):
            s = lin[i][0] * c.variable("u1") + lin[i][1] * c.variable("u2")
            s = s + rand_poly(c, rng, 3, 3).filter_degree(
                ["h"], lambda d: d == 0).filter_degree(c.variables, lambda d: d >= 2)
            imgs[v] = s
        h = invert_map(imgs)
        hh = invert_map(h)
        for v in imgs:
            assert hh[v].is_close(imgs[v], 1e-7)


def test_invert_singular_rejected():
    c = ctx1()
    with pytest.raises(SeriesError):
        invert_map({"u1": c.monomial({"u1": 2})})


def test_invert_map_small_scale_accepted():
    # 1e-5 * id has determinant 1e-10 but is perfectly conditioned
    c = SeriesContext(["u1", "u2", "h"], 4)
    imgs = {v: 1e-5 * c.variable(v) for v in ("u1", "u2")}
    inv = invert_map(imgs)
    for v in imgs:
        assert inv[v].is_close(1e5 * c.variable(v), 1e-6)
        assert compose(imgs[v], inv).is_close(c.variable(v), 1e-12)
        assert invert_map(inv)[v].is_close(imgs[v], 1e-15)


def test_singularity_is_scale_free():
    M = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-12]])
    for scale in (1e-8, 1.0, 1e8):
        assert is_singular(scale * M)
        assert not is_singular(scale * np.eye(2))
    assert is_singular(np.zeros((2, 2)))
    assert not is_singular(np.zeros((0, 0)))


def test_laurent_guard_and_shift():
    # h alone takes inverse powers: h^-1 in every context that holds h,
    # u1^-1 in none
    for names in (["h"], ["u1"], ["u1", "h"], ["h", "u1"], ["u1", "u2", "h"]):
        c = SeriesContext(names, 4)
        if "h" in names:
            assert c.monomial({"h": -1}).coefficient({"h": -1}) == 1
        if "u1" in names:
            with pytest.raises(SeriesError, match="negative exponent on variable 'u1'"):
                c.monomial({"u1": -1})
    c = SeriesContext(["u1", "h"], 4)
    s = c.monomial({"u1": 3}) * c.variable("h", -1)
    assert s.min_degree() == 1
    with pytest.raises(SeriesError, match="arity"):
        TruncatedSeries(c, {(1, 0, 0): 1.0})


def test_the_filtration_is_fixed_by_the_names():
    # h weighs 2 and every other variable 1, so a context is its names and cap
    assert SeriesContext(["u1", "h"], 4).weights == (1, 2)
    assert SeriesContext(["h", "u1", "v1"], 4).weights == (2, 1, 1)
    assert SeriesContext(["u1", "h"], 4) == SeriesContext(("u1", "h"), 4)
    # map_vars keeps the filtration: h maps to h and to nothing else
    c = SeriesContext(["u1", "u2", "h"], 4)
    s = c.monomial({"u1": 1, "h": 1})
    assert s.map_vars({"u1": "u2"}, c) == c.monomial({"u2": 1, "h": 1})
    with pytest.raises(SeriesError, match="h maps to h only"):
        s.map_vars({"h": "u2", "u1": "u1"}, c)
    with pytest.raises(SeriesError, match="h maps to h only"):
        s.map_vars({"u1": "h", "h": "u2"}, c)


def test_exp_requires_positive_degree():
    c = ctx1()
    with pytest.raises(NonTerminatingAdError, match="^exp: the argument has terms of degree <= 0$"):
        (c.one() + c.variable("u1")).exp()
    # u1^2 h^-1 weighs 0, so its powers never vanish under truncation
    with pytest.raises(NonTerminatingAdError, match="^exp: the argument has terms of degree <= 0$"):
        c.monomial({"u1": 2, "h": -1}).exp()
    e = c.variable("u1").exp()
    assert abs(e.coefficient({"u1": 2}) - 0.5) < 1e-12


def test_unit_sqrt_and_inverse():
    c = ctx1()
    s = c.one() + 0.3 * c.variable("u1") + c.monomial({"u1": 2}, -0.1)
    r = s.unit_sqrt()
    assert (r * r).is_close(s, 1e-10)
    assert (s * s.unit_inverse()).is_close(c.one(), 1e-10)


def test_json_round_trip_canonical():
    c = ctx1()
    s = c.monomial({"u1": 2}, 1 + 2j) + c.variable("h") * 0.25
    data = s.to_json()
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps)
    s2 = TruncatedSeries.from_json(data)
    assert s2.is_close(s, 0)


def round_trip(s):
    return TruncatedSeries.from_json(json.loads(json.dumps(s.to_json())))


def test_json_round_trip_inverse_powers_of_h():
    c = SeriesContext(["u1", "h"], 4)
    s = c.monomial({"u1": 3, "h": -1}, 0.5 - 1j) + c.monomial({"h": 1}, 2.0)
    s2 = round_trip(s)
    assert s2.ctx == s.ctx
    assert s2.is_close(s, 0)


def test_zero_threshold():
    # the kernel drops exact zeros only
    c = ctx1()
    assert c.constant(1e-12).constant_term() == 1e-12
    assert c.constant(0.0).is_zero() and c.constant(Fraction(0)).is_zero()


def test_oscillatory_scalar_multiplication():
    a = OscillatoryScalar({0: 2.0}, cap=8)
    b = OscillatoryScalar({1: 1.0}, cap=8)
    prod = a * b
    assert prod.coefficient(1) == 2.0
    assert (a.mul_i_power(3) * b.mul_i_power(2)).i_power == 1


def test_oscillatory_scalar_json_keeps_cap_and_laurent():
    s = OscillatoryScalar({-10: 1}, cap=24)
    assert set(s.to_json()) == {"i_power", "laurent"}
    assert OscillatoryScalar.__slots__ == ("i_power", "series")
    back = OscillatoryScalar.from_json(json.loads(json.dumps(s.to_json())))
    assert (back.cap, back.laurent) == (24, {-10: 1 + 0j})


def test_oscillatory_scalar_drops_powers_beyond_half_the_cap():
    # h^k weighs 2k and is kept while 2k <= cap, as in every series:
    # inverse powers always stay
    s = OscillatoryScalar({-5: 1, -4: 2, 4: 3, 5: 4}, cap=8)
    assert s.laurent == {-5: 1, -4: 2, 4: 3}
    prod = s * OscillatoryScalar({-1: 1, 1: 1}, cap=8)
    assert prod.laurent == {-6: 1, -5: 2, -4: 1, -3: 2, 3: 3}
    with pytest.raises(SeriesError):
        s * OscillatoryScalar({1: 1}, cap=6)


def test_oscillatory_i_power():
    s = OscillatoryScalar.one().mul_i_power(3)
    assert s.leading() == (0, 1j ** 3)
    assert (s.mul_i_power(1)).leading()[1] == 1.0
    assert OscillatoryScalar({-2: 3.0, 1: 1.0}, 1).leading() == (-2, 3j)
    assert OscillatoryScalar({}).leading() == (0, 0)



# --- exact coefficients ---------------------------------------------------------

EXACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)
QCTX = SeriesContext(["x", "y", "h"], 4)


@st.composite
def fraction_series(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        k = draw(st.integers(0, (4 - a - b) // 2)) if a + b <= 4 else 0
        terms[(a, b, k)] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return QCTX.from_terms(terms)


def complex_image(s):
    return QCTX.from_terms({e: complex(c) for e, c in s.terms.items()})


def assert_exact(s):
    assert all(type(c) in (int, Fraction) for c in s.terms.values()), s


def assert_float_image(exact, approx):
    scale = max(1.0, exact.max_abs())
    for e in set(exact.terms) | set(approx.terms):
        assert abs(complex(exact.coefficient(e)) - approx.coefficient(e)) <= 1e-12 * scale


@EXACT
@given(fraction_series(), fraction_series(),
       st.fractions(min_value=-5, max_value=5, max_denominator=7),
       st.fractions(min_value=-3, max_value=3, max_denominator=5))
def test_fraction_series_stay_exact_and_match_complex_image(f, g, q, x):
    fc, gc = complex_image(f), complex_image(g)
    ops = [(f * g, fc * gc), (f + g, fc + gc), (f - g, fc - gc),
           (f * q, fc * q), (f * 3, fc * 3), (3 * f - 1, 3 * fc - 1)]
    ops += [(f.diff(v), fc.diff(v)) for v in QCTX.variables]
    ops.append((exp_second_order(f, [("x", "x", q), ("x", "y", Fraction(1, 3))]),
                exp_second_order(fc, [("x", "x", complex(q)), ("x", "y", 1 / 3)])))
    for exact, approx in ops:
        assert_exact(exact)
        assert_float_image(exact, approx)
    point = {"x": x, "y": Fraction(2, 3), "h": Fraction(-1, 4)}
    value = f.evaluate(point)
    assert type(value) in (int, Fraction)
    assert abs(complex(value) - fc.evaluate({v: float(p) for v, p in point.items()})) \
        <= 1e-12 * max(1.0, abs(value))


def test_fraction_series_json_round_trip_exact():
    s = QCTX.from_terms({(2, 0, 0): Fraction(1, 3), (0, 1, 1): Fraction(-7, 2),
                         (1, 0, 0): 5})
    back = round_trip(s)
    assert back.ctx == s.ctx
    assert back.terms == s.terms
    assert_exact(back)


def test_coefficient_types_and_exact_zeros():
    s = QCTX.monomial({"x": 1}, Fraction(1, 3))
    assert repr(s) == "<series (1/3)*x^1>"
    assert (s - s).is_zero()
    assert QCTX.from_terms({(1, 0, 0): 0j, (0, 1, 0): Fraction(0)}).is_zero()
    mixed = s + QCTX.monomial({"y": 1}, np.float64(0.5))
    assert type(mixed.coefficient({"y": 1})) is complex
    assert type(mixed.coefficient({"x": 1})) is Fraction
    assert type((s * 1.5).coefficient({"x": 1})) is complex


# --- trusted construction ---------------------------------------------------------

TRUSTED = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def laurent_ctx(n, cap):
    return SeriesContext([f"u{i + 1}" for i in range(n)] + ["h"], cap)


@st.composite
def coefficient(draw):
    if draw(st.booleans()):
        return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))


@st.composite
def laurent_series(draw, ctx, min_degree=None):
    """A series with h^-1, h^0 and h^1 terms, built by the validating constructor."""
    n = len(ctx.variables) - 1
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exp = tuple(draw(st.integers(0, 3)) for _ in range(n)) + (draw(st.integers(-1, 1)),)
        terms[exp] = draw(coefficient())
    s = TruncatedSeries(ctx, terms)
    if min_degree is not None:
        s = s.filter_degree(ctx.variables, lambda d: d >= min_degree)
    return s


@st.composite
def series_pair(draw):
    ctx = laurent_ctx(draw(st.integers(1, 2)), draw(st.integers(3, 6)))
    return ctx, draw(laurent_series(ctx)), draw(laurent_series(ctx))


def assert_admitted(r):
    """Full validation of ``r``'s terms would change nothing."""
    v = TruncatedSeries(r.ctx, r.terms)
    assert v.terms == r.terms
    assert all(type(v.terms[e]) is type(c) for e, c in r.terms.items())


def assert_near(a, b):
    assert a.ctx == b.ctx
    assert a.distance(b) <= 1e-12 * max(1.0, a.max_abs(), b.max_abs())


def compose_by_partial_sums(f, images):
    """``compose`` as the sum ``out = out + term`` over the terms of f, each
    the monomial of its unlisted exponents times the images, one factor at
    a time.  Images have terms of degree >= 1 only, so every partial
    product has degree at most that of the terms it grows into, and the
    cap cuts none that reach degree <= cap."""
    ctx = f.ctx
    out = ctx.zero()
    for e, c in f.terms.items():
        term = ctx.monomial([0 if v in images else p for v, p in zip(ctx.variables, e)], c)
        for v, p in zip(ctx.variables, e):
            for _ in range(p if v in images else 0):
                term = term * images[v]
        out = out + term
    return out


@TRUSTED
@given(series_pair(), st.data())
def test_closed_operations_return_admitted_series(fg, data):
    ctx, f, g = fg
    u = [v for v in ctx.variables if v != "h"]
    pairs = [(a, b, 0.5j) for i, a in enumerate(u) for b in u[i:]]
    images = {v: data.draw(laurent_series(ctx, min_degree=1)) for v in u}
    results = [f * g, f + g, f - g, -f, g - 3, 1 + f,
               f.filter_degree(["h"], lambda d: d >= 0),
               f.filter_degree(ctx.variables, lambda d: d == 2),
               exp_second_order(f, pairs), compose(f, images),
               contract_product(f, g, pairs[:1]),
               contract_product(f, g, [(a, b, Fraction(1, 2)) for a, b in zip(u, u[::-1])]),
               linear_combination(ctx, [(f, Fraction(2, 3)), (g, 0.5),
                                        (f * g, np.complex128(1j))])]
    results += [f.diff(v) for v in ctx.variables]
    results += [s * k for s in (f, ctx.constant(3))
                for k in (2, Fraction(1, 3), 0.5, 1.5j, np.float64(0.25))]
    for r in results:
        assert_admitted(r)


@TRUSTED
@given(series_pair())
def test_product_matches_all_pairs_through_the_constructor(fg):
    ctx, f, g = fg
    naive = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            naive[e] = naive.get(e, 0) + ca * cb
    assert_near(f * g, TruncatedSeries(ctx, naive))


@TRUSTED
@given(series_pair(), st.data())
def test_compose_matches_partial_sums(fg, data):
    ctx, f, _ = fg
    listed = data.draw(st.lists(st.sampled_from(ctx.variables[:-1]), unique=True))
    images = {v: data.draw(laurent_series(ctx, min_degree=1)) for v in listed}
    assert_near(compose(f, images), compose_by_partial_sums(f, images))


def compose_term_by_term(f, images):
    """``compose`` as a per-term loop: each term's monomial of unlisted
    exponents times each listed image power in turn, the powers built at a
    cap wider by the depth of the most negative unlisted part and the sum
    cut at the cap."""
    ctx = f.ctx
    listed = [(ctx.index(v), v) for v in images]
    split, depth = [], 0
    for e, c in f.terms.items():
        start = list(e)
        for i, _ in listed:
            start[i] = 0
        split.append((start, c, [(v, e[i]) for i, v in listed if e[i]]))
        depth = max(depth, -weighted_degree(ctx, tuple(start)))
    wide = SeriesContext(ctx.variables, ctx.cap + depth)
    powers = {v: [None, wide.from_terms(g.terms)] for v, g in images.items()}
    out = wide.zero()
    for start, c, factors in split:
        term = wide.monomial(start, c)
        for v, p in factors:
            cache = powers[v]
            while len(cache) <= p:
                cache.append(cache[-1] * cache[1])
            term = term * cache[p]
        out = out + term
    return ctx.from_terms(out.terms)


GROUPED = settings(max_examples=80, deadline=None, derandomize=True, database=None)
GCTX_VARS = ["u1", "u2", "u3", "y", "h"]


@st.composite
def grouped_compose_case(draw, exact):
    """``f`` whose terms repeat a few patterns of listed powers, with h^-1
    and h^-2 in their unlisted parts, and images of degree >= 1 in 1-3 of
    ``u1..u3``; coefficients are Fractions when ``exact``, else complex."""
    ctx = SeriesContext(GCTX_VARS, draw(st.integers(3, 6)))
    listed = draw(st.lists(st.sampled_from(GCTX_VARS[:3]), min_size=1, max_size=3, unique=True))
    if exact:
        coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    else:
        coeff = st.builds(complex, st.floats(-2, 2), st.floats(0.1, 2))
    patterns = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(listed)),
                             min_size=1, max_size=3))
    terms = {}
    for _ in range(draw(st.integers(2, 10))):
        e = dict(zip(listed, draw(st.sampled_from(patterns))))
        for v in GCTX_VARS[:4]:
            e.setdefault(v, draw(st.integers(0, 1)))
        e["h"] = draw(st.integers(-2, 1))
        terms[tuple(e[v] for v in GCTX_VARS)] = draw(coeff)
    images = {}
    for v in listed:
        g = {tuple(draw(st.integers(0, 1)) for _ in GCTX_VARS[:4]) + (draw(st.integers(-1, 1)),):
             draw(coeff) for _ in range(draw(st.integers(0, 3)))}
        rest = TruncatedSeries(ctx, g).filter_degree(GCTX_VARS, lambda d: d >= 1)
        images[v] = ctx.variable(draw(st.sampled_from(GCTX_VARS[:4]))) * draw(coeff) + rest
    return TruncatedSeries(ctx, terms), images


@GROUPED
@given(grouped_compose_case(exact=True))
def test_grouped_compose_equals_the_term_loop_exactly(case):
    f, images = case
    out = compose(f, images)
    assert_exact(out)
    assert out == compose_term_by_term(f, images)


@GROUPED
@given(grouped_compose_case(exact=False))
def test_grouped_compose_equals_the_term_loop_to_rounding(case):
    f, images = case
    out, loop = compose(f, images), compose_term_by_term(f, images)
    # rounding is bounded by the same substitution on the magnitudes
    ctx = f.ctx
    size = compose_term_by_term(ctx.from_terms({e: abs(c) for e, c in f.terms.items()}),
                                {v: ctx.from_terms({e: abs(c) for e, c in g.terms.items()})
                                 for v, g in images.items()})
    assert out.distance(loop) <= 1e-13 * max(1.0, size.max_abs())


# --- the rung rule against the power sum ------------------------------------------


def exp_second_order_by_powers(s, pairs):
    """``exp(h sum c d_a d_b) s`` summed power by power, each power of the
    operator divided by k, until a power vanishes: an independent reference
    for the ladders that ``exp_second_order`` climbs.  Exact pairs and an
    exact series give an exact sum."""
    ctx = s.ctx
    idx = [(ctx.index(a), ctx.index(b), c) for a, b, c in pairs if c]
    if not idx:
        return s
    ih = ctx.index("h")
    out = dict(s.terms)
    term = s.terms
    k = 0
    while term:
        k += 1
        nxt = {}
        for e, c in term.items():
            for i, j, w in idx:
                mult = e[i] * (e[j] - (i == j))
                if mult > 0:
                    e2 = list(e)
                    e2[i] -= 1
                    e2[j] -= 1
                    e2[ih] += 1
                    key = tuple(e2)
                    nxt[key] = nxt.get(key, 0) + c * w * Fraction(mult, k)
        term = {e: c for e, c in nxt.items() if c}
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return TruncatedSeries(ctx, out)


@st.composite
def series_and_pairs(draw):
    """An exact series in up to three weight-1 variables with h^-2 .. h^2
    terms, and a pair set over its variables: diagonal pairs, mixed pairs
    and Wick pairs such as (u1, u1), (u1, u2), (u2, u2) that share one."""
    n = draw(st.integers(1, 3))
    ctx = laurent_ctx(n, draw(st.integers(0, 8)))
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exp = tuple(draw(st.integers(0, 4)) for _ in range(n)) + (draw(st.integers(-2, 2)),)
        terms[exp] = draw(fractions)
    u = ctx.variables[:-1]
    pairs = draw(st.lists(st.tuples(st.sampled_from(u), st.sampled_from(u), fractions),
                          max_size=4))
    return TruncatedSeries(ctx, terms), pairs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(series_and_pairs())
def test_ladders_equal_the_power_sum(sp):
    s, pairs = sp
    exact = exp_second_order(s, pairs)
    assert exact == exp_second_order_by_powers(s, pairs)
    assert_exact(exact)
    sc = s.ctx.from_terms({e: complex(c) for e, c in s.terms.items()})
    cpairs = [(a, b, complex(c)) for a, b, c in pairs]
    approx = exp_second_order(sc, cpairs)
    assert_near(approx, exp_second_order_by_powers(sc, cpairs))
    assert_near(approx, s.ctx.from_terms({e: complex(c) for e, c in exact.terms.items()}))


def test_ladder_strategy_reaches_every_pair_shape():
    """The pair sets drawn above hold diagonal pairs, mixed pairs, Wick
    pairs sharing a variable, and series with h^-1 terms that contract."""
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(series_and_pairs())
    def record(sp):
        s, pairs = sp
        negative = s.filter_degree(["h"], lambda d: d < 0)
        if any(a == b for a, b, c in pairs if c):
            seen.add("diagonal")
        if any(a != b for a, b, c in pairs if c):
            seen.add("mixed")
        named = [v for a, b, c in pairs if c and a != b for v in (a, b)]
        if any(a == b and a in named for a, b, c in pairs if c):
            seen.add("shared")
        if exp_second_order(negative, pairs) != negative:
            seen.add("inverse h contracted")
    record()
    assert seen == {"diagonal", "mixed", "shared", "inverse h contracted"}


def test_coefficients_split_a_series_by_the_named_exponents():
    ctx = SeriesContext(["u1", "v1", "v2", "h"], 6)
    s = ctx.from_terms({(1, 2, 0, -1): 2, (0, 2, 0, 1): 1j, (3, 0, 1, 0): Fraction(1, 3),
                        (2, 0, 0, -2): 0.5, (0, 0, 0, 0): 4})
    parts = s.coefficients(["v1", "v2"])
    assert {e: c.terms for e, c in parts.items()} == {
        (2, 0): {(1, 0, 0, -1): 2, (0, 0, 0, 1): 1j}, (0, 1): {(3, 0, 0, 0): Fraction(1, 3)},
        (0, 0): {(2, 0, 0, -2): 0.5, (0, 0, 0, 0): 4}}
    assert sum((c * ctx.monomial(dict(zip(["v1", "v2"], e))) for e, c in parts.items()),
               ctx.zero()) == s
    # h may be named: its negative exponents split off too
    assert {e: c.terms for e, c in s.coefficients(["h"]).items()}[(-2,)] == {(2, 0, 0, 0): 0.5}
    assert ctx.zero().coefficients(["v1"]) == {}
    with pytest.raises(SeriesError, match="names a variable twice"):
        s.coefficients(["v1", "v1"])


def test_linear_combination_checks_contexts():
    a, b = laurent_ctx(1, 4), laurent_ctx(2, 4)
    with pytest.raises(SeriesError):
        linear_combination(a, [(a.one(), 1), (b.one(), 1)])
    s = linear_combination(a, [(a.variable("u1"), 0.5), (a.one(), 2)])
    assert s == a.from_terms({(1, 0): 0.5, (0, 0): 2})
    assert type(s.coefficient((0, 0))) is int


def test_exp_second_order_contracts_weight_one_variables_only():
    c = laurent_ctx(1, 4)
    for pair in (("u1", "h", 1), ("h", "h", 1)):
        with pytest.raises(SeriesError, match="weight-1"):
            exp_second_order(c.variable("u1"), [pair])


def test_no_pairs_need_no_h():
    # with no pairs there is nothing to contract, so a context without h
    # serves exp_second_order as it serves contract_product
    s = SeriesContext(["u1"], 4).variable("u1")
    assert exp_second_order(s, []) == s
    assert exp_second_order(s, [("u1", "u1", 0)]) == s
    assert contract_product(s, s, []) == s * s
    with pytest.raises(SeriesError, match="unknown variable 'h'"):
        exp_second_order(s, [("u1", "u1", 1)])


def test_series_value_equality_and_unhashable():
    c = laurent_ctx(1, 4)
    s = c.from_terms({(1, -1): Fraction(1, 2)})
    assert s == c.from_terms({(1, -1): 0.5}) and s != s * 2
    assert s != laurent_ctx(1, 5).from_terms(s.terms)
    assert s != s.terms
    with pytest.raises(TypeError):
        hash(s)


def test_contract_product_checks_contexts_and_weights():
    c = laurent_ctx(2, 4)
    u1, u2 = c.variable("u1"), c.variable("u2")
    with pytest.raises(SeriesError, match="context mismatch"):
        contract_product(u1, laurent_ctx(2, 5).variable("u1"), [("u1", "u1", 1)])
    with pytest.raises(SeriesError, match="weight-1"):
        contract_product(u1, u1, [("u1", "h", 1)])
    with pytest.raises(SeriesError, match="twice"):
        contract_product(u1, u2, [("u1", "u1", 1), ("u1", "u2", 1)])
    # d_u1 of u1 times d_u2 of u2 contracts to h
    assert contract_product(u1, u2, [("u1", "u2", 1)]) == u1 * u2 + c.variable("h")


def test_products_with_a_zero_or_a_capped_operand():
    # the monomial-pair walk itself answers an operand with no terms and a
    # term with no room under the cap, with and without pairs, h^-1 included
    c = laurent_ctx(2, 4)
    f = c.from_terms({(1, 0, -1): 2, (0, 1, 0): 1j, (4, 0, 0): 3})
    for pairs in ([], [("u1", "u2", 1), ("u2", "u1", 0.5)]):
        assert contract_product(f, c.zero(), pairs) == c.zero()
        assert contract_product(c.zero(), f, pairs) == c.zero()
    assert f * c.zero() == c.zero() == c.zero() * f
    # u1^4 has no room for u2, the lowest term of the other operand
    assert f * c.variable("u2") == c.from_terms({(1, 1, -1): 2, (0, 2, 0): 1j})


def test_one_number_rule_for_scalar_operands():
    ctx = SeriesContext(["y1", "h"], 4)
    s = ctx.variable("y1") + Fraction(1, 3)
    # exact scalars stay exact; every other number becomes complex
    assert (s * 2).terms == {(1, 0): 2, (0, 0): Fraction(2, 3)}
    assert (s * np.int64(2)) == s * complex(2)
    assert (s + np.int64(2)) == s + complex(2) and (s - np.int64(2)) == s - complex(2)
    assert (s * np.float32(2)) == s * complex(2)
    assert linear_combination(ctx, [(s, np.int64(3))]) == s * complex(3)
    assert (OscillatoryScalar.one() * np.int64(3)).laurent == {0: 3}
    for call in (lambda: s * "a", lambda: "a" * s, lambda: s + "a", lambda: "a" - s,
                 lambda: s - None, lambda: s * [1], lambda: OscillatoryScalar.one() * "a",
                 lambda: OscillatoryScalar.one() * s,
                 lambda: linear_combination(ctx, [(s, "a")]),
                 lambda: exp_second_order(s, [("y1", "y1", "a")])):
        with pytest.raises(SeriesError, match="is not a number"):
            call()


def test_exponents_and_caps_are_integral():
    ctx = SeriesContext(["y1", "h"], 4)
    s = TruncatedSeries(ctx, {(np.int64(1), np.int64(0)): 2})
    assert [type(p) for e in s.terms for p in e] == [int, int]
    assert json.loads(json.dumps(s.to_json())) == s.to_json()
    assert ctx.monomial({"y1": np.int64(2)}) == ctx.variable("y1", 2)
    assert SeriesContext(["y1"], np.int64(3)).cap.__class__ is int
    assert OscillatoryScalar({np.int64(-1): 1}).laurent == {-1: 1}
    good = {"variables": ["y1", "h"], "cap": 4, "terms": [{"exp": [1, 0], "num": 1, "den": 2}]}
    for call, message in [
            (lambda: TruncatedSeries(ctx, {(1.5, 0): 1}), r"exponent \(1.5, 0\) is not integral"),
            (lambda: TruncatedSeries(ctx, {1: 1}), "exponent 1 is not integral"),
            (lambda: TruncatedSeries.from_json({**good, "terms": [{"exp": [1.5, 0], "re": 1,
                                                                   "im": 0}]}),
             "is not integral"),
            (lambda: ctx.monomial({"y1": 1.7}), "is not integral"),
            (lambda: ctx.monomial([1, "2"]), "is not integral"),
            (lambda: SeriesContext(["y1"], 2.5), "cap 2.5 is not an integer"),
            (lambda: OscillatoryScalar({0.5: 1}), "is not integral"),
            (lambda: TruncatedSeries.from_json({"variables": ["y1"], "terms": []}),
             "series JSON lacks the field 'cap'"),
            (lambda: TruncatedSeries.from_json({**good, "terms": [{"num": 1, "den": 2}]}),
             "series JSON lacks the field 'exp'"),
            (lambda: TruncatedSeries.from_json({**good, "terms": [{"exp": [1, 0], "num": 1,
                                                                   "den": 0}]}),
             "series JSON has a term with denominator 0")]:
        with pytest.raises(SeriesError, match=message):
            call()
    assert TruncatedSeries.from_json(good).terms == {(1, 0): Fraction(1, 2)}


def test_series_input_errors_are_typed():
    ctx = SeriesContext(["y1", "y2", "h"], 4)
    y1, y2 = ctx.variable("y1"), ctx.variable("y2")
    other = SeriesContext(["y1", "y2", "h"], 6)
    h_only = SeriesContext(["h"], 4)
    for call, message in [
            (lambda: SeriesContext(["y1", "y1"], 2), "duplicate variable names"),
            (lambda: SeriesContext(["y1"], -1), "cap must be nonnegative"),
            (lambda: (1 + y1) ** -1, "negative powers"),
            # a power is read as an index, as a cap is
            (lambda: y1 ** 1.5, "power 1.5 is not an integer"),
            (lambda: y1 ** "2", "power '2' is not an integer"),
            (lambda: y1.unit_inverse(), "^unit_inverse: inverse of a non-unit series"),
            (lambda: y1.unit_sqrt(), "^unit_sqrt: sqrt of a non-unit series"),
            (lambda: (y1 - 1).unit_sqrt(), "^unit_sqrt: expects a positive real lead"),
            # an exponent of the wrong arity is an error, not a zero coefficient
            (lambda: y1.coefficient((1, 0)), "exponent arity mismatch"),
            (lambda: y1.coefficient((1, 0, 0, 0)), "exponent arity mismatch"),
            (lambda: y1.map_vars({"y1": "z"}, ctx), "unknown variable 'z'"),
            (lambda: invert_map({"y1": y1, "y2": other.variable("y2")}),
             "images live in different contexts"),
            (lambda: invert_map({"y1": y1 + 1, "y2": y2}), "image of 'y1' has nonzero constant"),
            (lambda: invert_map({"y1": y1 + y2}), "image of 'y1' has linear part outside"),
            (lambda: OscillatoryScalar(y1), "series in h alone"),
            # the Laurent part comes first: a leading number is no Laurent part
            (lambda: OscillatoryScalar(0, {0: 1}), "is not a map, a series or None"),
            (lambda: OscillatoryScalar(Fraction(1, 3)), "is not a map, a series or None"),
            # i_power is read as an index: no float is truncated to an int
            (lambda: OscillatoryScalar({0: 1}, 1.5), "i_power 1.5 is not an integer"),
            (lambda: OscillatoryScalar({0: 1}, "x"), "i_power 'x' is not an integer"),
            # variable names are strings, so an unhashable one is a typed error too
            (lambda: SeriesContext([[1], "h"], 4),
             r"variable names \(\[1\], 'h'\) are not all strings"),
            (lambda: SeriesContext([1, "h"], 4), "are not all strings"),
            (lambda: TruncatedSeries.from_json({"variables": [[1], "h"], "cap": 4, "terms": []}),
             r"variable names \(\[1\], 'h'\) are not all strings")]:
        with pytest.raises(SeriesError, match=message):
            call()
    assert OscillatoryScalar(h_only.variable("h")).laurent == {1: 1}
    assert OscillatoryScalar({0: 1}, np.int64(5)).i_power == 1


def test_contexts_and_series_are_values():
    # a context is its variables and its cap, however the names were passed
    listed, tupled = SeriesContext(["y1", "h"], 4), SeriesContext(("y1", "h"), 4)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed != SeriesContext(["y1", "h"], 5)
    assert not listed.zero() and listed.one()


# --- packed keys ------------------------------------------------------------------
#
# Each term is stored under one int (see the ``series`` module docstring).
# The references below are the tuple-keyed loops that the packed kernel
# replaced, kept here only to pin it: every result must be equal on exact
# coefficients.


def tuple_ladder(p, q, step=1):
    out = [1]
    while p > 0 and q > 0:
        out.append(out[-1] * p * q // len(out))
        p -= step
        q -= step
    return out


def tuple_climb(terms, i, j, ih, c, ladder):
    for e, ce in terms[:]:
        e2 = list(e)
        ck = 1
        for k in range(1, len(ladder)):
            e2[i] -= 1
            e2[j] -= 1
            e2[ih] += 1
            ck *= c
            terms.append((tuple(e2), ce * (ck * ladder[k])))


def tuple_contract_product(f, g, pairs):
    """``contract_product`` as a walk over exponent tuples."""
    ctx = f.ctx
    idx = [(ctx.index(a), ctx.index(b), c) for a, b, c in pairs if c]
    ih = ctx.index("h") if idx else None
    a = sorted([(weighted_degree(ctx, e), e, c) for e, c in f.terms.items()])
    b = sorted([(weighted_degree(ctx, e), e, c) for e, c in g.terms.items()])
    out = {}
    for da, ea, ca in a:
        for db, eb, cb in b:
            if db > ctx.cap - da:
                break
            terms = [(tuple(x + y for x, y in zip(ea, eb)), ca * cb)]
            for i, j, c in idx:
                if ea[i] and eb[j]:
                    tuple_climb(terms, i, j, ih, c, tuple_ladder(ea[i], eb[j]))
            for e, ce in terms:
                out[e] = out.get(e, 0) + ce
    assert all(weighted_degree(ctx, e) <= ctx.cap for e in out)
    return TruncatedSeries(ctx, out)


def tuple_exp_second_order(s, pairs):
    """``exp_second_order`` as ladders over exponent tuples."""
    ctx = s.ctx
    idx = [(ctx.index(a), ctx.index(b), c) for a, b, c in pairs if c]
    ih = ctx.index("h") if idx else None
    terms = dict(s.terms)
    for i, j, c in idx:
        ladders = {}
        for e, ce in terms.items():
            if e[i] > (i == j) and e[j] > 0:
                ladders.setdefault((e[i], e[j]), []).append((e, ce))
        for (p, q), group in ladders.items():
            n = len(group)
            tuple_climb(group, i, j, ih, c,
                        tuple_ladder(p, q - 1, 2) if i == j else tuple_ladder(p, q))
            for e, ce in group[n:]:
                terms[e] = terms.get(e, 0) + ce
    return TruncatedSeries(ctx, terms)


PACKED = settings(max_examples=150, deadline=None, derandomize=True, database=None)
PACKED_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def packed_context(draw):
    """1-6 variables, h among them first, in the middle or last."""
    jets = [f"y{i + 1}" for i in range(draw(st.integers(0, 5)))]
    at = draw(st.sampled_from([0, len(jets) // 2, len(jets)]))
    return SeriesContext(jets[:at] + ["h"] + jets[at:], draw(st.integers(0, 8)))


@st.composite
def packed_series(draw, ctx, coefficients=PACKED_FRACTIONS):
    """Terms with jet exponents 0..3 and h^-3 .. h^2, exact by default."""
    terms = {}
    for _ in range(draw(st.integers(0, 7))):
        e = tuple(draw(st.integers(-3, 2)) if v == "h" else draw(st.integers(0, 3))
                  for v in ctx.variables)
        terms[e] = draw(coefficients)
    return TruncatedSeries(ctx, terms)


@PACKED
@given(st.data())
def test_packed_contract_product_equals_the_tuple_loop(data):
    ctx = data.draw(packed_context())
    f, g = data.draw(packed_series(ctx)), data.draw(packed_series(ctx))
    jets = [v for v in ctx.variables if v != "h"]
    left, right = data.draw(st.permutations(jets)), data.draw(st.permutations(jets))
    k = data.draw(st.integers(0, len(jets)))
    pairs = [(a, b, data.draw(PACKED_FRACTIONS)) for a, b in zip(left[:k], right[:k])]
    out = contract_product(f, g, pairs)
    assert out == tuple_contract_product(f, g, pairs)
    assert_exact(out)
    assert f * g == tuple_contract_product(f, g, [])


@PACKED
@given(st.data())
def test_packed_exp_second_order_equals_the_tuple_loop(data):
    ctx = data.draw(packed_context())
    s = data.draw(packed_series(ctx))
    jets = [v for v in ctx.variables if v != "h"]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(jets), st.sampled_from(jets),
                                         PACKED_FRACTIONS), max_size=4)) if jets else []
    out = exp_second_order(s, pairs)
    assert out == tuple_exp_second_order(s, pairs)
    assert_exact(out)


@PACKED
@given(st.data())
def test_terms_is_a_fresh_decoded_view(data):
    ctx = data.draw(packed_context())
    s = data.draw(packed_series(ctx))
    terms = s.terms
    assert TruncatedSeries(ctx, terms) == s
    assert all(len(e) == len(ctx.variables) and all(type(p) is int for p in e) for e in terms)
    # key order is (weighted degree, exponent tuple) order
    by_degree = sorted(terms, key=lambda e: (weighted_degree(ctx, e), e))
    assert by_degree == sorted(terms, key=ctx._pack)
    assert s.terms is not terms
    terms.clear()
    assert s == TruncatedSeries(ctx, s.terms)
    assert s.is_zero() == (not s.terms)


def test_packed_json_is_byte_identical():
    ctx = SeriesContext(["u1", "h", "u2"], 4)
    s = ctx.from_terms({(2, 0, 1): Fraction(1, 3), (0, -1, 1): 0.5 + 2j, (1, 1, 0): 3,
                        (0, 0, 0): -1j, (3, -2, 2): Fraction(-7, 2)})
    assert json.dumps(s.to_json()) == (
        '{"variables": ["u1", "h", "u2"], "cap": 4, "terms": ['
        '{"exp": [0, -1, 1], "re": 0.5, "im": 2.0}, {"exp": [0, 0, 0], "re": -0.0, "im": -1.0}, '
        '{"exp": [1, 1, 0], "num": 3, "den": 1}, {"exp": [2, 0, 1], "num": 1, "den": 3}, '
        '{"exp": [3, -2, 2], "num": -7, "den": 2}]}')
    assert repr(s) == ("<series (0.5+2j)*h^-1*u2^1 + (-0-1j) + (3)*u1^1*h^1 + "
                       "(1/3)*u1^2*u2^1 + (-7/2)*u1^3*h^-2*u2^2>")


def test_packed_fields_hold_their_range_exactly():
    ctx = SeriesContext(["y", "h", "z"], 381)
    edge = {(127, 0, 0): 1, (0, -64, 0): 2, (0, 63, 0): 3, (0, 0, 127): 4, (127, -64, 127): 5}
    s = TruncatedSeries(ctx, edge)
    assert s.terms == edge
    assert s.coefficient((0, 0, 128)) == 0 and s.coefficient((128, -1, 0)) == 0
    # products and ladders that stay within the fields are exact
    y, h = ctx.variable("y"), ctx.variable("h")
    assert (ctx.monomial({"y": 64}) * ctx.variable("y", 63)).terms == {(127, 0, 0): 1}
    assert (ctx.monomial({"h": -63}) * ctx.monomial({"h": -1})).terms == {(0, -64, 0): 1}
    assert (ctx.monomial({"h": 62}) * h).terms == {(0, 63, 0): 1}
    assert ctx.monomial({"h": -63}).diff("h").terms == {(0, -64, 0): -63}
    top = exp_second_order(ctx.monomial({"y": 126}), [("y", "y", 1)])
    assert top.coefficient({"h": 63}) == math.factorial(126) // math.factorial(63)
    assert y.map_vars({}, SeriesContext(["y", "h", "z"], 2)) == SeriesContext(
        ["y", "h", "z"], 2).variable("y")
    assert SeriesContext(["y"], 381).cap == 381


def test_packed_fields_raise_instead_of_carrying():
    ctx, low = SeriesContext(["y", "h", "z"], 381), SeriesContext(["y", "h", "z"], 8)
    beyond = "beyond its packed field"
    outgrew = "outgrew its packed field"
    for call, message in [
            (lambda: TruncatedSeries(ctx, {(128, 0, 0): 1}), beyond),
            (lambda: TruncatedSeries(ctx, {(0, 0, 128): 1}), beyond),
            (lambda: TruncatedSeries(ctx, {(300, 0, 0): 1}), beyond),
            (lambda: TruncatedSeries(ctx, {(0, -65, 0): 1}), beyond),
            (lambda: TruncatedSeries(ctx, {(0, 64, 0): 1}), beyond),
            (lambda: ctx.monomial({"y": 64}) * ctx.monomial({"y": 64}), outgrew),
            (lambda: ctx.monomial({"z": 127}) * ctx.variable("z"), outgrew),
            (lambda: ctx.monomial({"h": -64}) * ctx.monomial({"h": -1}), outgrew),
            (lambda: ctx.monomial({"h": 63}) * ctx.variable("h"), outgrew),
            (lambda: ctx.monomial({"y": 3, "h": -64}) * ctx.monomial({"z": 3, "h": -64}),
             outgrew),
            (lambda: ctx.monomial({"h": -64}).diff("h"), outgrew),
            (lambda: exp_second_order(ctx.monomial({"y": 127, "h": 1}), [("y", "y", 1)]),
             outgrew),
            (lambda: contract_product(ctx.monomial({"y": 127, "h": 63}), ctx.variable("z"),
                                      [("y", "z", 1)]), outgrew),
            (lambda: compose(low.monomial({"y": 1, "h": -64}),
                             {"y": low.monomial({"y": 1, "z": 3, "h": -1})}), outgrew),
            (lambda: ctx.monomial({"y": 100, "z": 100}).map_vars(
                {"z": "y"}, SeriesContext(["y", "h"], 381)), beyond),
            (lambda: SeriesContext(["y"], 382), "cap 382 is beyond 381")]:
        with pytest.raises(SeriesError, match=message):
            call()


def tuple_map_vars(s, mapping, new_ctx):
    """``map_vars`` as a loop over exponent tuples: the same checks in the
    same order, then each term's exponents added into their target slots,
    the terms summed and those beyond the cap dropped."""
    slots = []
    for i, v in enumerate(s.ctx.variables):
        tv = mapping.get(v, v)
        if tv not in new_ctx.variables:
            if any(e[i] for e in s.terms):
                raise SeriesError(f"unknown variable {tv!r}")
            continue
        if (v == "h") != (tv == "h"):
            raise SeriesError("h maps to h only")
        slots.append((i, new_ctx.variables.index(tv)))
    out = {}
    for e, c in s.terms.items():
        e2 = [0] * len(new_ctx.variables)
        for i, j in slots:
            e2[j] += e[i]
        if weighted_degree(new_ctx, e2) <= new_ctx.cap:
            if max(e2, default=0) > 127:
                raise SeriesError("beyond its packed field")
            out[tuple(e2)] = out.get(tuple(e2), 0) + c
    return {e: c for e, c in out.items() if c}


MAP_KINDS = ("rename", "merge", "embed", "lift", "lower", "unknown", "h", "field")


@st.composite
def map_vars_case(draw):
    """``(kind, series, mapping, target context)``: a source over two or
    three of y1..y3, h at any place and x9, which no term uses; exact terms
    with h^-3 .. h^2.  Each kind forces its feature: two terms that merge
    into one, a term beyond a lowered cap, exponents near the 127 of a
    packed field for ``field``."""
    kind = draw(st.sampled_from(MAP_KINDS))
    jets = draw(st.permutations(["y1", "y2", "y3"]))[:draw(st.integers(2, 3))]
    names = jets[:]
    names.insert(draw(st.integers(0, len(jets))), "h")
    cap = 381 if kind == "field" else draw(st.integers(2, 8))
    variables = ["h"] if kind == "embed" else names + ["x9"]
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        e = tuple(draw(st.integers(-3, 2)) if v == "h" else 0 if v == "x9" else
                  draw(st.integers(0, 3)) for v in variables)
        terms[e] = draw(PACKED_FRACTIONS)
    src = SeriesContext(variables, cap)
    s = TruncatedSeries(src, terms)
    a, b = jets[:2]
    mapping = {}
    target = names
    if kind == "rename":
        renamed = draw(st.permutations(["z1", "z2", "z3", jets[-1]]))
        mapping = dict(zip(jets, renamed))
        target = draw(st.permutations(renamed + ["h"]))
    elif kind in ("merge", "field"):
        p, q = (draw(st.integers(60, 70)) for _ in "pq") if kind == "field" else (1, 0)
        s = s + src.monomial({a: p, b: q}) + src.monomial({a: q, b: p}, 2)
        mapping = {a: b}
        target = draw(st.sampled_from([names, [v for v in names if v != a]]))
    elif kind in ("lift", "lower"):
        target = variables
        mapping = draw(st.sampled_from([{}, {v: v for v in variables}]))
        cap2 = cap + draw(st.integers(0, 3)) if kind == "lift" else draw(st.integers(0, cap - 1))
        s = s if kind == "lift" else s + src.monomial({a: cap2 + 1})
        return kind, s, mapping, SeriesContext(target, cap2)
    elif kind == "unknown":
        s = s + src.variable(a)
        mapping = {a: "w9"}
    elif kind == "h":
        mapping = draw(st.sampled_from([{"h": a}, {a: "h"}, {"h": "h", b: "h"}]))
    return kind, s, mapping, SeriesContext(target, draw(st.integers(0, cap)))


@PACKED
@given(map_vars_case())
def test_map_vars_equals_the_tuple_renaming(case):
    kind, s, mapping, new_ctx = case
    try:
        expected = tuple_map_vars(s, mapping, new_ctx)
    except SeriesError as exc:
        assert kind in ("unknown", "h", "field")
        with pytest.raises(SeriesError, match=re.escape(str(exc))):
            s.map_vars(mapping, new_ctx)
        return
    assert kind not in ("unknown", "h")
    out = s.map_vars(mapping, new_ctx)
    assert out.ctx == new_ctx and out.terms == expected
    assert_exact(out)
    if kind == "lower":
        assert len(out.terms) < len(s.terms)


def tuple_shift(s, var, k):
    """``s`` times ``var^k`` as a loop over exponent tuples: each term's
    exponent of ``var`` raised by ``k`` and the result read by the
    validating constructor, which drops the terms beyond the cap."""
    i = s.ctx.index(var)
    return s.ctx.from_terms({e[:i] + (e[i] + k,) + e[i + 1:]: c for e, c in s.terms.items()})


@PACKED
@given(st.data())
def test_a_product_by_an_inverse_power_of_h_equals_the_tuple_shift(data):
    ctx = data.draw(packed_context())
    s = data.draw(packed_series(ctx, coefficient()))
    k = data.draw(st.integers(-3, -1))
    out = s * ctx.variable("h", k)
    expected = tuple_shift(s, "h", k)
    assert out == expected
    assert {e: type(c) for e, c in out.terms.items()} == {
        e: type(c) for e, c in expected.terms.items()}


def test_coefficients_are_read_by_the_number_rule():
    ctx = SeriesContext(["y1", "h"], 4)
    for c in ("1", "a", None, [1]):
        with pytest.raises(SeriesError, match="coefficient .* is not a number"):
            TruncatedSeries(ctx, {(0, 0): c})
    s = TruncatedSeries(ctx, {(0, 0): np.float64(0.5), (1, 0): True, (0, 1): Fraction(1, 2)})
    assert [type(c) for c in s.terms.values()] == [complex, complex, Fraction]


def test_oscillatory_scalar_json_errors_are_typed():
    good = OscillatoryScalar({-1: 2.0, 0: 1j}, 1).to_json()
    # a document written while scalars carried a phase exponent (always 0) still
    # reads; its "exact" flag is ignored
    for data in (good, {**good, "exponent": {"num": 0, "den": 1}, "exact": True},
                 {**good, "exponent": 0.0, "exact": False}, {**good, "exponent": 0}):
        back = OscillatoryScalar.from_json(data)
        assert (back.i_power, back.laurent) == (1, {-1: 2.0, 0: 1j})
    for data, message in [
            ({k: v for k, v in good.items() if k != "laurent"},
             "oscillatory scalar JSON lacks the field 'laurent'"),
            ({k: v for k, v in good.items() if k != "i_power"},
             "oscillatory scalar JSON lacks the field 'i_power'"),
            ({**good, "i_power": "x"}, "oscillatory scalar JSON has a malformed field 'i_power'"),
            ({**good, "i_power": 1.5}, "oscillatory scalar JSON has a malformed field 'i_power'"),
            ("x", "oscillatory scalar JSON lacks the field 'laurent'"),
            *[({**good, "exponent": e, "exact": True},
               "oscillatory scalar JSON field 'exponent' is ")
              for e in ({"num": 1, "den": 3}, {"num": 0, "den": 0}, {"num": 0}, 0.5,
                        float("nan"), "0", None)],
            ({**good, "laurent": {"variables": ["h"], "cap": 4}},
             "series JSON lacks the field 'terms'")]:
        with pytest.raises(SeriesError, match=message):
            OscillatoryScalar.from_json(data)
