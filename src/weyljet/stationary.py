"""Formal stationary phase: Legendre transforms, Gaussian moments and the
fiber-integration engine.  :func:`stationary_phase` is the entry point for
a Fourier integral of a series phase (the Weil Fourier generator takes its
quadratic one in closed form).  The engine runs one path for every phase,
and on a phase of weighted degree at most 2 that path is exact.

Conventions, fixed once for the whole package:

* kernel normalization ``(2 pi h)^{-m/2} Int exp(i x.xi / h) dx``;
* the Gaussian constant for a nondegenerate symmetric Hessian ``Q`` is
  ``det(-iQ)^{-1/2}``, taken through the principal logarithms of the
  eigenvalues of ``-iQ``, which must stay off the negative real axis.

For real ``Q`` the eigenvalues of ``-iQ`` lie on the imaginary axis, and
the same formula gives ``exp(i pi sgn(Q)/4) |det Q|^{-1/2}``; there is no
separate real branch.
"""

from __future__ import annotations

from numbers import Integral
from typing import Sequence

import numpy as np

from .series import (DEFAULT_EPS, HBAR, SeriesContext, SeriesError, TruncatedSeries,
                     _form_pairs, _matrix, compose, exp_second_order, fixed_point,
                     is_singular, linear_combination, negligible)


class DegenerateHessianError(SeriesError):
    pass


# --- Gaussian moments --------------------------------------------------------


def gaussian_moment(Q, alpha: Sequence[int]) -> tuple[complex, int]:
    """Normalized moment ``<z^alpha>`` for the weight ``exp(i Q z^2 / 2h)``.

    Returns ``(coefficient, hbar_power)`` where the moment equals
    ``coefficient * h**hbar_power``; odd total degree gives zero.  The
    propagator of a single pairing is ``i h (Q^{-1})_{jk}``.
    """
    Qm = _matrix(Q, "gaussian_moment: Q", symmetric=True)
    if len(alpha) != len(Qm):
        raise SeriesError("gaussian_moment: alpha needs one entry per row of Q")
    if not all(isinstance(a, Integral) and a >= 0 for a in alpha):
        raise SeriesError("gaussian_moment: alpha entries must be nonnegative integers")
    if is_singular(Qm):
        raise DegenerateHessianError("singular quadratic form")
    z = [f"z{j}" for j in range(len(alpha))]
    order = sum(int(a) for a in alpha)
    ctx = SeriesContext(z + [HBAR], order)
    zalpha = ctx.monomial(dict(zip(z, alpha)))
    moment = exp_second_order(zalpha, _form_pairs(z, 0.5j * np.linalg.inv(Qm)))
    return complex(moment.coefficient({HBAR: order // 2})), order // 2


# --- prefactor branches ------------------------------------------------------


def hessian_matrix(F: TruncatedSeries, variables: Sequence[str]) -> np.ndarray:
    """Second-derivative matrix of the quadratic-in-``variables`` part of
    ``F`` with every other variable set to zero."""
    n = len(variables)
    Q = np.zeros((n, n), dtype=complex)
    for i, vi in enumerate(variables):
        Q[i, i] = 2.0 * F.coefficient({vi: 2})
        for j in range(i + 1, n):
            Q[i, j] = Q[j, i] = F.coefficient({vi: 1, variables[j]: 1})
    return Q


def gaussian_prefactor(Q) -> complex:
    """``det(-iQ)^{-1/2}`` through principal eigenvalue logarithms.

    Both degeneracy tests are scale-free: ``Q`` is singular relative to its
    largest singular value, and an eigenvalue of ``-iQ`` lies on the cut
    when its angle is within ``DEFAULT_EPS`` of pi.
    """
    Qm = _matrix(Q, "gaussian_prefactor: Q", symmetric=True)
    if is_singular(Qm):
        raise DegenerateHessianError("degenerate Hessian")
    lam = np.linalg.eigvals(-1j * Qm)
    if any(l.real < 0 and abs(l.imag) <= DEFAULT_EPS * abs(l) for l in lam):
        raise DegenerateHessianError("Hessian branch point on the cut")
    return complex(np.exp(-0.5 * np.sum(np.log(lam))))


# --- the fiber engine --------------------------------------------------------


def fiber_stationary_phase(phase: TruncatedSeries, amplitude: TruncatedSeries,
                           z_vars: Sequence[str]):
    """Integrate ``exp(i phase / h) * amplitude`` over the ``z_vars`` block.

    ``phase`` must vanish to second order in ``z`` at the origin of the
    remaining (parameter) variables, with nondegenerate ``z``-Hessian
    ``Q``; the ``z_vars`` are jet variables, not ``h``.  Returns
    ``(reduced_phase, prefactor, out_amplitude, critical_map)`` where the
    integral equals ``exp(i reduced_phase/h) * prefactor * out_amplitude``
    under the pinned kernel normalization; the reduced phase is ``phase``
    at ``z*``.  One path serves every phase.  An ``h^-k`` in the amplitude
    reads ``z*`` and the interaction ``2k`` degrees above its own, so the
    path lifts both inputs once to a cap ``2k`` wider and lowers what it
    returns once.  The gradient is ``g0 + Qz + rest(z)``, with ``g0`` its
    z-free part and ``rest`` raising the degree of an error in ``z`` by
    one, so each pass of ``z <- -Q^{-1}(g0 + rest(z))`` from ``-Q^{-1} g0``
    fixes one degree more, and ``cap - 1`` passes reach the cap; no
    tolerance decides.  Recentred at ``z*``, the phase is ``z.Qz/2`` plus
    an interaction ``delta``, and ``out_amplitude`` is the z-free part of
    ``exp((ih/2) d.Q^{-1}d)`` applied to ``exp(i delta/h)`` times the
    shifted amplitude.  On a phase of weighted degree at most 2, ``rest``
    and ``delta`` vanish, so ``z*`` is the first step and the result is
    exact, not asymptotic.
    """
    ctx = phase.ctx
    if amplitude.ctx != ctx:
        raise SeriesError("phase and amplitude context mismatch")
    z_vars = list(z_vars)
    if not z_vars:
        return phase, 1.0 + 0.0j, amplitude, {}
    if HBAR in z_vars:
        raise SeriesError("integration variables must be jet variables, not h")
    if phase.depends_on(HBAR):
        raise SeriesError("phase must not depend on the deformation parameter")

    # a term survives at the base point only when it is free of parameters
    # (they weigh at least 1; h is absent): below z-degree 2 that leaves
    # the constant and the z-linear terms
    base = [phase.constant_term()] + [phase.coefficient({v: 1}) for v in z_vars]
    if not all(negligible(c, phase.max_abs()) for c in base):
        raise SeriesError("phase has constant or z-linear part at the base point")

    Q = hessian_matrix(phase, z_vars)
    pref = gaussian_prefactor(Q)
    Qinv = np.linalg.inv(Q)
    wide = SeriesContext(ctx.variables, ctx.cap - min(amplitude.degrees([HBAR]) | {0}))
    wphase = phase.map_vars({}, wide)
    grad = [wphase.diff(v) for v in z_vars]
    g0 = [g.filter_degree(z_vars, lambda d: d == 0) for g in grad]
    zstar = {v: linear_combination(wide, zip(g0, -Qinv[i])) for i, v in enumerate(z_vars)}
    rest = [g.filter_degree(z_vars, lambda d: d >= 1)
            .filter_degree(wide.variables, lambda d: d >= 2) for g in grad]
    zstar = fixed_point(zstar, Qinv, lambda z: [compose(r, z) for r in rest])

    # recenter: (phase/h)(z* + z) has no z-linear part, and z.Qz/2h is its
    # z-quadratic part of weighted degree 0; the interaction is the rest of
    # z-degree >= 2.  Dividing before composing keeps terms up to cap + 2
    shift = {v: zstar[v] + wide.variable(v) for v in z_vars}
    delta = (compose(wphase * wide.variable(HBAR, -1), shift)
             .filter_degree(z_vars, lambda d: d >= 2)
             .filter_degree(wide.variables, lambda d: d >= 1))
    integrand = compose(amplitude.map_vars({}, wide), shift) * (delta * 1j).exp()

    # Wick contraction of the z-block (Isserlis: propagator ih Q^{-1}),
    # keeping the z-free part: each power lowers the z-degree by two, so
    # terms of odd z-degree never reach it
    integrand = integrand.filter_degree(z_vars, lambda d: d % 2 == 0)
    out = (exp_second_order(integrand, _form_pairs(z_vars, 0.5j * Qinv))
           .filter_degree(z_vars, lambda d: d == 0))
    zstar = {v: z.map_vars({}, ctx) for v, z in zstar.items()}
    return compose(phase, zstar), pref, out.map_vars({}, ctx), zstar


# --- spec-level wrappers -----------------------------------------------------


def legendre_transform(F: TruncatedSeries,
                       variables: Sequence[str] | None = None) -> TruncatedSeries:
    """Legendre transform ``G(eta) = eta.y + F(y)`` at ``eta + F'(y) = 0``:
    the phase that :func:`stationary_phase` returns for amplitude 1, whose
    base-point check rejects constant and linear terms in ``variables``.

    The result is expressed in the input variable names again, so the
    double transform can be compared with the parity-reflected input.
    """
    return stationary_phase(F, F.ctx.one(), variables)[0]


def stationary_phase(F: TruncatedSeries, a: TruncatedSeries,
                     variables: Sequence[str] | None = None):
    """Full-line Fourier integral of ``exp(iF/h) a`` by formal expansion.

    Returns ``(G, prefactor, b)`` with ``G`` the Legendre transform of the
    phase, the Gaussian branch prefactor, and the amplitude expansion
    ``b``; both ``G`` and ``b`` come back in the input variable names,
    ``b`` with ``h`` added when the input lacks it.
    """
    ctx = F.ctx
    if variables is None:
        jets = [v for v in ctx.variables if v != HBAR]
        variables = [v for v in jets if F.depends_on(v) or a.depends_on(v)] or jets
    # the input context with h added when it lacks h, then the joint
    # context with the dual slots
    hctx = ctx if HBAR in ctx.variables else SeriesContext(ctx.variables + (HBAR,), ctx.cap)
    duals = [f"_dual_{v}" for v in variables]
    joint = SeriesContext(hctx.variables + tuple(duals), ctx.cap)
    phase = F.map_vars({}, joint)
    for v, d in zip(variables, duals):
        phase = phase + joint.monomial({v: 1, d: 1}, 1.0)
    G, pref2, b, _ = fiber_stationary_phase(phase, a.map_vars({}, joint), variables)
    back = {d: v for v, d in zip(variables, duals)}
    return G.map_vars(back, ctx), pref2, b.map_vars(back, hctx)
