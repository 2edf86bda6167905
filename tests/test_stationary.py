import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from weyljet.series import (SeriesContext, SeriesError, compose, exp_second_order,
                            linear_combination, negligible, quadratic_series)
from weyljet.stationary import (DegenerateHessianError, fiber_stationary_phase,
                                gaussian_moment, gaussian_prefactor,
                                hessian_matrix, legendre_transform,
                                stationary_phase)

from test_series import tuple_shift


def yctx(cap=8, nvars=1):
    names = [f"y{i+1}" for i in range(nvars)] + ["h"]
    return SeriesContext(names, cap)


# --- gaussian moments ---------------------------------------------------------

def test_moment_second_order():
    coeff, p = gaussian_moment([[2.0]], [2])
    assert p == 1
    assert abs(coeff - 1j / 2.0) < 1e-14  # i/k with k = 2


def test_moment_odd_vanishes():
    coeff, p = gaussian_moment([[1.0]], [3])
    assert coeff == 0


def test_moment_fourth_order_pairings():
    coeff, p = gaussian_moment([[1.0]], [4])
    assert p == 2
    assert abs(coeff - 3 * (1j) ** 2) < 1e-13
    # (6 - 1)!! = 15 pairings, each contributing i**3
    assert gaussian_moment([[1.0]], [6]) == (-15j, 3)


def test_moment_q_dependence_homogeneous():
    # <z^alpha> scales as Q^{-|alpha|/2}
    c1, _ = gaussian_moment([[1.0]], [6])
    c2, _ = gaussian_moment([[2.0]], [6])
    assert abs(c1 / c2 - 2.0 ** 3) < 1e-12


def test_the_empty_form_is_the_unit():
    # no variables: the moment of the empty monomial and the Gaussian
    # constant are both 1, through the general rule
    empty = np.zeros((0, 0))
    assert gaussian_moment(empty, []) == ((1 + 0j), 0)
    assert gaussian_prefactor(empty) == 1


def test_moment_singular_rejected():
    with pytest.raises(DegenerateHessianError):
        gaussian_moment([[0.0]], [2])


def test_gaussian_forms_are_checked():
    eye = np.eye(2)
    for fn, args, check in [
            # the form of [[1, 2], [0, 1]] is [[1, 1], [1, 1]], singular
            (gaussian_prefactor, ([[1, 2], [0, 1]],), "not symmetric"),
            (gaussian_moment, ([[1, 0.5], [0.2, 1]], [1, 1]), "not symmetric"),
            (gaussian_prefactor, ([[1, 2]],), "not square"),
            (gaussian_moment, ([[1, 2]], [1, 1]), "not square"),
            (gaussian_prefactor, ([[1], [2, 3]],), "not a numeric matrix"),
            (gaussian_prefactor, ([[1, np.inf], [np.inf, 1]],), "not finite"),
            (gaussian_moment, ([[np.nan]], [2]), "not finite"),
            (gaussian_moment, (eye, [1, 1, 2]), "one entry per row"),
            (gaussian_moment, (eye, [2]), "one entry per row"),
            (gaussian_moment, ([[1.0]], [-2]), "nonnegative integers"),
            (gaussian_moment, ([[1.0]], [2.0]), "nonnegative integers")]:
        with pytest.raises(SeriesError, match=check):
            fn(*args)
    # symmetric means Q = Q^t, not Q = Q^H, and is judged against max|Q|
    Q = np.array([[2 + 1j, 0.5 - 0.5j], [0.5 - 0.5j, 1 + 2j]])
    assert gaussian_moment(Q, [1, 1])[0] == pytest.approx(1j * np.linalg.inv(Q)[0, 1])
    nearly = [[1e6, 5e5], [5e5 + 1e-6, 1e6]]
    assert gaussian_prefactor(nearly) == pytest.approx(gaussian_prefactor([[1e6, 5e5],
                                                                           [5e5, 1e6]]))
    assert gaussian_moment(np.eye(2, dtype=np.int64), np.array([2, 0]))[1] == 1


# --- prefactor branch ---------------------------------------------------------

def test_prefactor_real_branch():
    for k in (1.0, -1.0, 2.0, -2.0, 3.0):
        pref = gaussian_prefactor([[k]])
        expected = cmath.exp(1j * math.pi * math.copysign(1, k) / 4) / math.sqrt(abs(k))
        assert abs(pref - expected) < 1e-14


def test_prefactor_standard_gaussian_self_dual():
    assert abs(gaussian_prefactor([[1j]]) - 1.0) < 1e-14


def test_prefactor_complex_continuity():
    # real branch is the limit of the holomorphic branch from Im Q > 0
    for k in (1.0, -2.0):
        lim = gaussian_prefactor([[k + 1e-9j]])
        real = gaussian_prefactor([[k]])
        assert abs(lim - real) < 1e-6


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_prefactor_real_mixed_signature_is_scale_free(scale):
    rng = np.random.default_rng(3)
    for n, signs in ((2, (1, -1)), (3, (1, -1, -1)), (3, (1, 1, -1))):
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Q = scale * (basis * (np.array(signs) * rng.uniform(0.5, 2.0, n))) @ basis.T
        Q = (Q + Q.T) / 2
        vals = np.linalg.eigvalsh(Q)
        sgn = int(np.sum(vals > 0) - np.sum(vals < 0))
        expected = cmath.exp(1j * math.pi * sgn / 4) / math.sqrt(abs(np.prod(vals)))
        assert abs(gaussian_prefactor(Q) - expected) <= 1e-12 * abs(expected)
        singular = scale * (basis * (np.array(signs) * np.arange(n))) @ basis.T
        with pytest.raises(DegenerateHessianError):
            gaussian_prefactor(singular)


def numeric_gaussian_constant(k: float, hbar: float) -> complex:
    """Adaptive quadrature of ``(2 pi h)^{-1/2} Int exp(i k x^2 / 2h) dx``.

    Independent check for the branch of the formal Gaussian rule.
    """
    c = abs(k) / (2.0 * hbar)
    # substitute u = x^2:  Int_R = Int_0^inf u^{-1/2} (cos(cu) + i sin(cu)) du
    def density(u):
        return 1.0 / math.sqrt(u)

    re_head, _ = quad(lambda u: density(u) * math.cos(c * u), 0.0, 1.0, limit=400)
    im_head, _ = quad(lambda u: density(u) * math.sin(c * u), 0.0, 1.0, limit=400)
    re_tail, _ = quad(density, 1.0, np.inf, weight="cos", wvar=c, limit=400)
    im_tail, _ = quad(density, 1.0, np.inf, weight="sin", wvar=c, limit=400)
    total = (re_head + re_tail) + 1j * (im_head + im_tail)
    if k < 0:
        total = total.conjugate()
    return total / math.sqrt(2.0 * math.pi * hbar)


def test_prefactor_numerical_oracle():
    for k in (1.0, -1.0, 2.0, -2.0, 3.0):
        numeric = numeric_gaussian_constant(k, hbar=1e-2)
        formal = gaussian_prefactor([[k]])
        assert abs(numeric - formal) < 1e-4


# --- legendre -----------------------------------------------------------------

def test_legendre_quadratic_closed_form():
    c = yctx()
    F = c.monomial({"y1": 2}, 1.5)  # k y^2/2 with k = 3
    G = legendre_transform(F)
    assert abs(G.coefficient({"y1": 2}) + 1.0 / 6.0) < 1e-12  # -eta^2/(2k)


def test_legendre_cubic_example():
    c = yctx()
    F = c.monomial({"y1": 2}, 0.5) + c.monomial({"y1": 3})
    G = legendre_transform(F)
    assert abs(G.coefficient({"y1": 2}) + 0.5) < 1e-10
    assert abs(G.coefficient({"y1": 3}) + 1.0) < 1e-10


def test_legendre_critical_equation():
    # eta + F'(y(eta)) = 0 to cap, via the duality G'(eta) = y(eta)
    rng = random.Random(2)
    c = yctx(cap=7)
    F = c.monomial({"y1": 2}, 0.8)
    for d in range(3, 6):
        F = F + c.monomial({"y1": d}, rng.uniform(-0.3, 0.3))
    G = legendre_transform(F)
    # Legendre duality: double transform with parity
    GG = legendre_transform(G)
    from weyljet.series import compose
    reflect = compose(F, {"y1": -c.variable("y1")})
    assert GG.is_close(reflect, 1e-8)


def test_legendre_without_h_in_the_context():
    # the amplitude expansion needs h: it comes back with h added
    c = SeriesContext(["y1"], 6)
    F = c.monomial({"y1": 2}, 0.5) + c.monomial({"y1": 3}, 0.3)
    G = legendre_transform(F)
    assert G.ctx == c and abs(G.coefficient({"y1": 4}) + 0.405) < 1e-12
    _, _, b = stationary_phase(F, c.one())
    assert b.ctx.variables == ("y1", "h") and abs(b.constant_term() - 1) < 1e-12


def test_legendre_degenerate_hessian_rejected():
    c = yctx()
    with pytest.raises((SeriesError, DegenerateHessianError)):
        legendre_transform(c.monomial({"y1": 3}))


def test_legendre_rejects_linear_part():
    c = yctx()
    with pytest.raises(SeriesError):
        legendre_transform(c.variable("y1") + c.monomial({"y1": 2}))


def test_legendre_keeps_parameter_terms():
    # a term linear in a parameter is no linear part in y1: the engine's
    # base-point check passes it, and the transform keeps it
    c = SeriesContext(["y1", "p1", "h"], 6)
    F = (c.monomial({"y1": 2}, 0.5) + c.monomial({"y1": 3}, 0.2)
         + c.monomial({"y1": 1, "p1": 1}, 0.4) + c.monomial({"p1": 1}, 0.3))
    G = legendre_transform(F, ["y1"])
    assert G == stationary_phase(F, c.one(), ["y1"])[0]
    assert abs(G.coefficient({"p1": 1}) - 0.3) < 1e-12


# --- stationary phase ---------------------------------------------------------

def test_pure_gaussian_exact():
    c = yctx()
    for k in (1.0, -2.0):
        F = c.monomial({"y1": 2}, k / 2)
        G, pref, b = stationary_phase(F, c.one())
        assert abs(G.coefficient({"y1": 2}) + 1.0 / (2 * k)) < 1e-12
        expected = cmath.exp(1j * math.pi * math.copysign(1, k) / 4) / math.sqrt(abs(k))
        assert abs(pref - expected) < 1e-13
        assert b.is_close(c.one(), 1e-12)  # b_0 = 1, b_{k>=1} = 0


def test_zero_amplitude_passthrough():
    c = yctx()
    F = c.monomial({"y1": 2}, 0.5) + c.monomial({"y1": 3}, 0.25)
    G, pref, b = stationary_phase(F, c.zero())
    assert b.is_zero()
    G1, pref1, _ = stationary_phase(F, c.one())
    assert G.is_close(G1, 1e-14) and abs(pref - pref1) < 1e-14


def brute_force_first_correction(lam: float) -> complex:
    """h^1 term of the expansion for F = y^2/2 + lam y^3, a = 1, by direct
    Wick enumeration of the two contributing contractions."""
    # exp(i lam y^3/h): order-2 term gives (i lam/h)^2 y^6/2 -> <y^6> = 15 (i h)^3
    # order-1 term gives i lam y^3/h -> odd, zero.
    # total h coefficient: (i lam)^2/2 * 15 * i^3  together with h^{3-2}
    return (1j * lam) ** 2 * 0.5 * 15.0 * (1j) ** 3


def test_first_correction_against_pairing_oracle():
    lam = 0.7
    c = yctx(cap=8)
    F = c.monomial({"y1": 2}, 0.5) + c.monomial({"y1": 3}, lam)
    G, pref, b = stationary_phase(F, c.one())
    got = b.coefficient({"h": 1})
    assert abs(got - brute_force_first_correction(lam)) < 1e-10


def test_fiber_engine_parametric():
    # reduce z with a parameter y: phase = z^2/2 + z*y^2 gives
    # critical z = -y^2, reduced phase -y^4/2
    c = SeriesContext(["z1", "y1", "h"], 8)
    phase = c.monomial({"z1": 2}, 0.5) + c.monomial({"z1": 1, "y1": 2})
    red, pref, amp, zstar = fiber_stationary_phase(phase, c.one(), ["z1"])
    assert abs(red.coefficient({"y1": 4}) + 0.5) < 1e-12
    assert zstar["z1"].is_close(-c.monomial({"y1": 2}), 1e-12)
    assert amp.is_close(c.one(), 1e-12)
    # h is no integration variable, and a context without h has none to
    # carry the h^-1 of the interaction
    with pytest.raises(SeriesError, match="not h"):
        fiber_stationary_phase(phase, c.one(), ["z1", "h"])
    d = SeriesContext(["z1", "y1"], 8)
    with pytest.raises(SeriesError, match="unknown variable 'h'"):
        fiber_stationary_phase(phase.map_vars({}, d), d.one(), ["z1"])


def test_fiber_engine_relation_annihilation():
    # integration by parts: E(ih da/dz - dphase/dz a) = 0
    rng = random.Random(9)
    c = SeriesContext(["z1", "y1", "h"], 8)
    phase = c.monomial({"z1": 2}, 0.5) + c.monomial({"z1": 3}, 0.2) \
        + c.monomial({"z1": 1, "y1": 2}, 0.4)
    for _ in range(4):
        b = sum((c.monomial({"z1": rng.randint(0, 2), "y1": rng.randint(0, 2)},
                            rng.uniform(-1, 1)) for _ in range(3)), c.zero())
        rel = tuple_shift(b.diff("z1") * 1j, "h", 1) - phase.diff("z1") * b
        _, _, out, _ = fiber_stationary_phase(phase, rel, ["z1"])
        assert out.max_abs() < 1e-9


def test_hessian_matrix_extraction():
    c = SeriesContext(["y1", "y2", "h"], 6)
    F = c.monomial({"y1": 2}, 1.0) + c.monomial({"y1": 1, "y2": 1}, 3.0)
    Q = hessian_matrix(F, ["y1", "y2"])
    assert np.allclose(Q, np.array([[2.0, 3.0], [3.0, 0.0]]))


def critical_point_full_loop(phase, z_vars):
    """The critical-point iteration of fiber_stationary_phase run for all
    cap + 1 Newton passes, with no early exit."""
    ctx = phase.ctx
    grad = [phase.diff(v) for v in z_vars]
    Qinv = np.linalg.inv(hessian_matrix(phase, z_vars))
    zstar = {v: ctx.zero() for v in z_vars}
    for _ in range(ctx.cap + 1):
        gvals = [compose(g, zstar) for g in grad]
        zstar = {v: linear_combination(ctx, [(zstar[v], 1)] + list(zip(gvals, -Qinv[i])))
                 for i, v in enumerate(z_vars)}
    return zstar


def test_critical_point_early_exit_matches_full_loop():
    c = SeriesContext(["z1", "z2", "u1", "u2", "h"], 8)
    T = [[1.0 + 0.5j, 0.3], [0.3, -2.0 + 1.0j]]
    quadratic = (c.monomial({"z1": 2}, T[0][0] / 2) + c.monomial({"z1": 1, "z2": 1}, T[0][1])
                 + c.monomial({"z2": 2}, T[1][1] / 2)
                 + c.monomial({"z1": 1, "u1": 1}) + c.monomial({"z2": 1, "u2": 1}))
    cubic = quadratic + c.monomial({"z1": 3}, 0.2) + c.monomial({"z2": 1, "u1": 2}, 0.4)
    for phase in (quadratic, cubic):
        _, _, _, zstar = fiber_stationary_phase(phase, c.one(), ["z1", "z2"])
        full = critical_point_full_loop(phase, ["z1", "z2"])
        assert all(zstar[v].distance(full[v]) < 1e-14 for v in ("z1", "z2"))
        if phase is quadratic:  # a quadratic phase: z* is the first linear step
            assert all(compose(phase.diff(v), zstar).max_abs() < 1e-14 for v in ("z1", "z2"))


# --- quadratic phases -------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def gaussian_integer(draw, nonzero=False):
    re = draw(st.sampled_from([-2, -1, 1, 2]) if nonzero else st.integers(-2, 2))
    return complex(re, draw(st.integers(-2, 2)))


@st.composite
def quadratic_problems(draw, caps=(3, 5)):
    """``(phase, amplitude, z_vars)``: a fibre of 1-3 variables ``z``, two
    parameters ``y`` and a cap in ``caps``, 3-5 by default.  The phase is
    ``(1/2) z.Qz + z.Ly + (1/2) y.Py + c.y`` with small Gaussian-integer
    entries and ``Q = A + i(MM^t + 1)``, ``A`` real symmetric, so ``Im Q``
    is positive definite and ``Q`` nondegenerate.  The amplitude is
    ``1 + a z1^2 y1 h^-1``, ``a`` a nonzero Gaussian integer, plus up to
    four monomials in ``z``, ``y`` and ``h^k``, ``k`` in {-1, 0, 1}, each of
    weighted degree >= 0."""
    m = draw(st.integers(1, 3))
    z = [f"z{i+1}" for i in range(m)]
    y = ["y1", "y2"]
    ctx = SeriesContext(z + y + ["h"], draw(st.integers(*caps)))
    A = np.array([[draw(st.integers(-2, 2)) for _ in z] for _ in z])
    M = np.array([[draw(st.integers(-1, 1)) for _ in z] for _ in z])
    Q = (A + A.T) / 2 + 1j * (M @ M.T + np.eye(m))
    P = np.array([[gaussian_integer(draw) for _ in y] for _ in y])
    phase = quadratic_series(ctx, Q, z) + quadratic_series(ctx, (P + P.T) / 2, y)
    for yv in y:
        phase = phase + ctx.monomial({yv: 1}, gaussian_integer(draw))
        for zv in z:
            phase = phase + ctx.monomial({zv: 1, yv: 1}, gaussian_integer(draw))
    amplitude = ctx.one() + ctx.monomial({"z1": 2, "y1": 1, "h": -1},
                                         gaussian_integer(draw, nonzero=True))
    for _ in range(draw(st.integers(0, 4))):
        exp = {v: draw(st.integers(0, 2)) for v in z + y}
        exp["h"] = max(draw(st.sampled_from([-1, 0, 1])), -(sum(exp.values()) // 2))
        amplitude = amplitude + ctx.monomial(exp, gaussian_integer(draw))
    return phase, amplitude, z


def wick_pairs(z_vars, Qinv):
    """Pairs of ``exp((ih/2) d.Q^{-1}d)`` for ``exp_second_order``."""
    m = len(z_vars)
    return [(z_vars[i], z_vars[j], (0.5j if i == j else 1j) * Qinv[i, j])
            for i in range(m) for j in range(i, m)]


def recentering_path(phase, amplitude, z_vars):
    """The fiber engine's recentering path for every phase: Newton steps
    for z*, compose by z* + z, the interaction, the Wick contraction and
    the z-free part.  It runs at a cap wider by the depth of the
    amplitude's h^-k, where it divides the phase by h before composing,
    and lowers what it returns.  Returns ``(reduced_phase, out_amplitude,
    z*)``."""
    ctx = phase.ctx
    depth = max(0, -min(amplitude.degrees(["h"]), default=0))
    wide = SeriesContext(ctx.variables, ctx.cap + depth)
    phase, amplitude = phase.map_vars({}, wide), amplitude.map_vars({}, wide)
    Qinv = np.linalg.inv(hessian_matrix(phase, z_vars))
    grad = [phase.diff(v) for v in z_vars]
    zstar = {v: wide.zero() for v in z_vars}
    gvals = [g.filter_degree(z_vars, lambda d: d == 0) for g in grad]
    for _ in range(wide.cap + 1):
        if all(negligible(g.max_abs(), phase.max_abs()) for g in gvals):
            break
        zstar = {v: linear_combination(wide, [(zstar[v], 1)] + list(zip(gvals, -Qinv[i])))
                 for i, v in enumerate(z_vars)}
        gvals = [compose(g, zstar) for g in grad]
    shift = {v: zstar[v] + wide.variable(v) for v in z_vars}
    shifted = compose(phase, shift)
    delta = (compose(phase * wide.variable("h", -1), shift)
             .filter_degree(z_vars, lambda d: d >= 2)
             .filter_degree(wide.variables, lambda d: d >= 1))
    integrand = compose(amplitude, shift)
    if not delta.is_zero():
        integrand = integrand * (delta * 1j).exp()
    contracted = exp_second_order(integrand, wick_pairs(z_vars, Qinv))
    return (shifted.filter_degree(z_vars, lambda d: d == 0).map_vars({}, ctx),
            contracted.filter_degree(z_vars, lambda d: d == 0).map_vars({}, ctx),
            {v: zstar[v].map_vars({}, ctx) for v in z_vars})


def quadratic_formula(phase, amplitude, z_vars):
    """``(phase(z*), (exp((ih/2) d.Q^{-1}d) amplitude)(z*))`` with z* the
    one linear step ``-Q^{-1}`` times the z-free gradient."""
    Qinv = np.linalg.inv(hessian_matrix(phase, z_vars))
    g0 = [phase.diff(v).filter_degree(z_vars, lambda d: d == 0) for v in z_vars]
    zstar = {v: linear_combination(phase.ctx, list(zip(g0, -Qinv[i])))
             for i, v in enumerate(z_vars)}
    return (compose(phase, zstar),
            compose(exp_second_order(amplitude, wick_pairs(z_vars, Qinv)), zstar))


def assert_close(a, b):
    assert a.distance(b) <= 1e-12 * max(1.0, a.max_abs(), b.max_abs())


@PROPERTY
@given(quadratic_problems(), st.data())
def test_quadratic_phase_matches_the_recentering_path_and_the_formula(problem, data):
    phase, amplitude, z_vars = problem
    reduced, _, out, zstar = fiber_stationary_phase(phase, amplitude, z_vars)
    ref_reduced, ref_out, ref_zstar = recentering_path(phase, amplitude, z_vars)
    assert_close(reduced, ref_reduced)
    assert_close(out, ref_out)
    for v in z_vars:
        assert_close(zstar[v], ref_zstar[v])
    q_reduced, q_out = quadratic_formula(phase, amplitude, z_vars)
    assert_close(reduced, q_reduced)
    assert_close(out, q_out)
    # a planted cubic term: the engine still matches the recentering path,
    # and no longer the quadratic formula, so the cubic term matters
    cubic = phase + phase.ctx.monomial({z_vars[0]: 3}, gaussian_integer(data.draw, True))
    reduced, _, out, _ = fiber_stationary_phase(cubic, amplitude, z_vars)
    ref_reduced, ref_out, _ = recentering_path(cubic, amplitude, z_vars)
    assert_close(reduced, ref_reduced)
    assert_close(out, ref_out)
    q_reduced, q_out = quadratic_formula(cubic, amplitude, z_vars)
    assert out.distance(q_out) + reduced.distance(q_reduced) > 1e-3


def assert_cap_invariant(phase, amplitude, z_vars):
    """The engine's result at the cap is the one at cap + 2, lowered."""
    ctx = phase.ctx
    wide = SeriesContext(ctx.variables, ctx.cap + 2)
    narrow = fiber_stationary_phase(phase, amplitude, z_vars)
    lifted = fiber_stationary_phase(phase.map_vars({}, wide), amplitude.map_vars({}, wide),
                                    z_vars)
    assert narrow[1] == lifted[1]
    for a, b in [(narrow[0], lifted[0]), (narrow[2], lifted[2])] + [
            (narrow[3][v], lifted[3][v]) for v in z_vars]:
        assert_close(a, b.map_vars({}, ctx))


@PROPERTY
@given(quadratic_problems())
def test_quadratic_phase_keeps_every_term_under_the_cap(problem):
    # the amplitude has a term with h^-1: the result at cap c is the one
    # at cap c + 2, lowered
    assert_cap_invariant(*problem)


# --- the general path -------------------------------------------------------------


@st.composite
def general_problems(draw):
    """``(phase, amplitude, z_vars)`` for the general path: a problem of
    :func:`quadratic_problems` at cap 4 with ``z1^3``, up to four monomials
    of degree 3 or 4 in ``z`` and ``y`` with a factor in ``z``, and the
    amplitude term ``z1 y1 h^-1`` added, each with a nonzero Gaussian
    integer coefficient divided by 10.  No phase term lies above the cap,
    and the amplitude has ``z1^2 h^-1``, so its depth is 2."""
    phase, amplitude, z = draw(quadratic_problems(caps=(4, 4)))
    ctx = phase.ctx
    for _ in range(draw(st.integers(0, 4))):
        factors = [draw(st.sampled_from(z))] + draw(st.lists(
            st.sampled_from(z + ["y1", "y2"]), min_size=2, max_size=3))
        exp = {v: factors.count(v) for v in factors}
        phase = phase + ctx.monomial(exp, gaussian_integer(draw, True) / 10)
    phase = phase + ctx.monomial({"z1": 3}, gaussian_integer(draw, True) / 10)
    amplitude = amplitude + ctx.monomial({"z1": 1, "y1": 1, "h": -1},
                                         gaussian_integer(draw, True) / 10)
    return phase, amplitude, z


@PROPERTY
@given(general_problems())
def test_general_path_keeps_every_term_under_the_cap(problem):
    # the phase is divided by h before it is composed, and the amplitude's
    # h^-1 runs the path two degrees wider
    assert_cap_invariant(*problem)


def cubic_fibre(cap):
    """``F = z^2/2 + s z + z^3/10`` over ``(z, s, h)``."""
    c = SeriesContext(["z", "s", "h"], cap)
    return c, c.monomial({"z": 2}, 0.5) + c.monomial({"z": 1, "s": 1}) + c.monomial({"z": 3}, 0.1)


def test_the_top_degrees_of_the_amplitude_are_kept():
    # z* = -s - 0.3 s^2 - 0.18 s^3, and (1 + 0.6 z*)^{-1/2} has s^3
    # coefficient 0.2025 at every cap
    for cap in (4, 6):
        c, F = cubic_fibre(cap)
        _, _, out, _ = fiber_stationary_phase(F, c.one(), ["z"])
        assert abs(out.coefficient({"s": 3}) - 0.2025) < 1e-12
    # an amplitude z^2 h^-1 reads z* two degrees above its own
    found = []
    for cap in (4, 6, 8):
        c, F = cubic_fibre(cap)
        _, _, out, _ = fiber_stationary_phase(F, c.one() + c.monomial({"z": 2, "h": -1}), ["z"])
        found.append(out.coefficient({"s": 6, "h": -1}))
    assert max(abs(x - found[-1]) for x in found) < 1e-12
    assert abs(found[-1] - 0.8737875) < 1e-12


def test_high_caps_need_no_convergence_test():
    # the critical point takes cap - 1 passes: at caps 12 and 14 the
    # results are the cap-10 ones, lowered
    results = {}
    for cap in (10, 12, 14):
        c = SeriesContext(["x1", "x2", "h"], cap)
        F = (c.monomial({"x1": 2}, -0.75) + c.monomial({"x1": 1, "x2": 1}, -1.25)
             + c.monomial({"x2": 2}, -0.625) + c.monomial({"x1": 1, "x2": 2}, -0.25)
             + c.monomial({"x2": 3}, -1.0))
        results[cap] = stationary_phase(F, c.one(), ["x2"])
    G, pref, b = results[10]
    for cap in (12, 14):
        G2, pref2, b2 = results[cap]
        assert pref2 == pref
        assert_close(G2.map_vars({}, G.ctx), G)
        assert_close(b2.map_vars({}, b.ctx), b)


def test_stationary_input_errors_are_typed():
    ctx = SeriesContext(["z1", "h"], 4)
    other = SeriesContext(["z1", "h"], 6)
    phase = ctx.monomial({"z1": 2}, 0.5)
    for call, message in [
            (lambda: fiber_stationary_phase(phase, other.one(), ["z1"]),
             "phase and amplitude context mismatch"),
            (lambda: fiber_stationary_phase(phase + ctx.monomial({"z1": 2, "h": 1}), ctx.one(),
                                            ["z1"]),
             "phase must not depend on the deformation parameter"),
            # -iQ = -1 lies on the cut of the principal logarithm
            (lambda: gaussian_prefactor([[-1j]]), "Hessian branch point on the cut"),
            # the one matrix reader names the caller
            (lambda: gaussian_prefactor([[1, np.nan], [np.nan, 1]]),
             "gaussian_prefactor: Q has entries that are not finite"),
            (lambda: gaussian_moment([[1, 2]], [1, 1]), r"gaussian_moment: Q of shape \(1, 2\)"),
            (lambda: gaussian_moment(np.eye(2), [1]), "gaussian_moment: alpha needs one entry")]:
        with pytest.raises(SeriesError, match=message):
            call()
