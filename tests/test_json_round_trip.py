"""Every serializable value survives ``from_json(json.loads(json.dumps(
x.to_json())))`` unchanged: series, oscillatory scalars, Gaussian jets and
submanifold charts, all of whose series go through one JSON path."""

import json
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weyljet.maslov import SubdivisionChart
from weyljet.series import OscillatoryScalar, SeriesContext, TruncatedSeries
from weyljet.weil import GaussianJet, jet_context

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def round_trip(x):
    return type(x).from_json(json.loads(json.dumps(x.to_json())))


@st.composite
def coefficients(draw):
    if draw(st.booleans()):
        return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3)))


@st.composite
def series(draw, ctx, min_h=-2):
    """Up to six terms with jet exponents 0..3 and h exponents from
    ``min_h`` to 1 when ``ctx`` ends in h."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exp = tuple(draw(st.integers(min_h, 1)) if v == "h" else draw(st.integers(0, 3))
                    for v in ctx.variables)
        terms[exp] = draw(coefficients())
    return TruncatedSeries(ctx, terms)


@st.composite
def contexts(draw):
    n = draw(st.integers(1, 2))
    return SeriesContext([f"u{i + 1}" for i in range(n)] + ["h"], draw(st.integers(0, 8)))


@st.composite
def scalars(draw, cap=None):
    exponent = draw(st.one_of(st.fractions(-3, 3, max_denominator=8), st.floats(-3, 3)))
    laurent = {draw(st.integers(-5, 5)): draw(coefficients())
               for _ in range(draw(st.integers(0, 4)))}
    return OscillatoryScalar(exponent, laurent, draw(st.integers(0, 3)),
                             draw(st.integers(0, 10)) if cap is None else cap)


@st.composite
def jets(draw):
    n = draw(st.integers(1, 2))
    cap = draw(st.integers(2, 8))
    ctx = jet_context(n, cap)
    mode = draw(st.sampled_from(["weil", "weil0"]))
    R = np.array([[draw(st.floats(-2, 2)) for _ in range(n)] for _ in range(n)])
    T = R + R.T
    if mode == "weil":
        L = np.array([[draw(st.floats(-1, 1)) for _ in range(n)] for _ in range(n)])
        T = T + 1j * (L @ L.T + 0.5 * np.eye(n))
    return GaussianJet(mode, T, draw(series(ctx, min_h=0)), draw(scalars(cap)))


@st.composite
def charts(draw):
    n = draw(st.integers(1, 2))
    base_free = tuple(j for j in range(n) if draw(st.booleans()))
    names = [f"x{j + 1}" if j in base_free else f"e{j + 1}" for j in range(n)]
    ctx = SeriesContext(names, 2)
    F = ctx.from_terms({tuple(draw(st.integers(0, 1)) for _ in range(n)):
                        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
                        for _ in range(draw(st.integers(0, 3)))})
    return SubdivisionChart(draw(st.sampled_from(["alpha", "m"])), "base", n, base_free, F,
                            draw(st.fractions(-2, 2, max_denominator=9)))


def same_scalar(a, b):
    return ((a.exponent, a.exact, a.i_power) == (b.exponent, b.exact, b.i_power)
            and a.series == b.series)


@PROPERTY
@given(st.data())
def test_series_and_scalar_round_trip(data):
    s = data.draw(series(data.draw(contexts())))
    assert round_trip(s) == s
    z = data.draw(scalars())
    back = round_trip(z)
    assert same_scalar(back, z)
    assert (back.cap, back.laurent) == (z.cap, z.laurent)


@PROPERTY
@given(jets())
def test_jet_round_trip(jet):
    back = round_trip(jet)
    assert back.mode == jet.mode and np.array_equal(back.T, jet.T)
    assert back.amplitude == jet.amplitude and same_scalar(back.scalar, jet.scalar)


@PROPERTY
@given(charts())
def test_chart_round_trip(chart):
    assert round_trip(chart) == chart
