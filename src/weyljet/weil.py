"""Formal Weil representation on Gaussian jets.

A Gaussian jet is ``scalar * exp(i T u^2 / 2h) * amplitude(u, h)``.  Mode
``weil`` keeps ``Im T`` positive definite (action everywhere defined);
mode ``weil0`` keeps ``T`` real, where the Fourier generator is only
partially defined and signals undefined elements instead of guessing a
branch.  A scalar is a power of ``i``, the central character, times a
Laurent series in ``h``.

Trust rule: every matrix handed in (a jet's ``T``, a generator's block, the
Sp matrix of :func:`factor_sp`) is read by ``_matrix`` of
:mod:`weyljet.series`, and ``GaussianJet(...)`` checks ``T`` against the
mode; generators keep that condition by construction and build their jets
unchecked, by ``_with_parts``.  Every float check is scale-free: symmetry,
realness and degeneracy against the largest entry of the matrix judged, and
symplecticity against its square (:func:`negligible`, :func:`is_singular`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import (HBAR, OscillatoryScalar, SeriesContext, SeriesError, TruncatedSeries,
                     _json_field, _matrix, compose, exp_second_order, is_singular,
                     linear_combination, negligible)
from .stationary import DegenerateHessianError, _wick_pairs, gaussian_prefactor


class UndefinedWeilActionError(SeriesError):
    def __init__(self, message, step=None):
        super().__init__(message + ("" if step is None else f" (word step {step})"))
        self.step = step


def jet_context(n: int, cap: int) -> SeriesContext:
    return SeriesContext([f"u{i+1}" for i in range(n)] + [HBAR], cap)


def _substitution(B, n: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``B``, read as a real ``n`` by ``n`` matrix, and its inverse."""
    B = _matrix(B, f"{what}: B", n, real=True)
    if is_singular(B):
        raise SeriesError(f"{what}: singular linear substitution")
    return B, np.linalg.inv(B)


class GaussianJet:
    """exp(i T u^2/2h) times an amplitude in the position jets."""

    __slots__ = ("mode", "n", "ctx", "T", "amplitude", "scalar")

    def __init__(self, mode: str, T, amplitude: TruncatedSeries,
                 scalar: OscillatoryScalar | None = None):
        if mode not in ("weil", "weil0"):
            raise SeriesError("mode must be 'weil' or 'weil0'")
        self.mode, self.ctx, self.amplitude = mode, amplitude.ctx, amplitude
        self.n = len([v for v in self.ctx.variables if v != HBAR])
        self.T = T = _matrix(T, "GaussianJet: T", self.n, symmetric=True)
        if mode == "weil" and np.linalg.eigvalsh(T.imag + T.imag.T).min() <= 0:
            raise SeriesError("mode weil requires Im T positive definite")
        if mode == "weil0" and not negligible(np.abs(T.imag).max(), np.abs(T).max()):
            raise SeriesError("mode weil0 requires real T")
        self.scalar = OscillatoryScalar.one(cap=self.ctx.cap) if scalar is None else scalar

    def vars(self) -> list[str]:
        return [v for v in self.ctx.variables if v != HBAR]

    def _with_parts(self, T=None, amplitude=None, scalar=None) -> "GaussianJet":
        """This jet with the parts given replaced, unchecked: the generators' path."""
        jet = object.__new__(GaussianJet)
        jet.mode, jet.n, jet.ctx = self.mode, self.n, self.ctx
        jet.T = self.T if T is None else T
        jet.amplitude = self.amplitude if amplitude is None else amplitude
        jet.scalar = self.scalar if scalar is None else scalar
        return jet

    def flattened(self) -> tuple[np.ndarray, TruncatedSeries]:
        """(T, the amplitude times the scalar: its Laurent part and its power of i)."""
        scalar = self.scalar
        return self.T, self.amplitude * scalar.series.map_vars({}, self.ctx) * 1j**scalar.i_power

    def is_close(self, other: "GaussianJet", tol: float = 1e-9) -> bool:
        (T1, a1), (T2, a2) = self.flattened(), other.flattened()
        return max(np.abs(T1 - T2).max(), a1.distance(a2)) <= tol

    def to_json(self) -> dict:
        return {"mode": self.mode, "T": [[[z.real, z.imag] for z in row] for row in self.T],
                "scalar": self.scalar.to_json(), "amplitude": self.amplitude.to_json()}

    @staticmethod
    def from_json(data: dict) -> "GaussianJet":
        def field(key, read=None):
            return _json_field(data, key, "gaussian jet", read)
        T = field("T", lambda T: [[complex(a, b) for a, b in row] for row in T])
        return GaussianJet(field("mode"), T, TruncatedSeries.from_json(field("amplitude")),
                           OscillatoryScalar.from_json(field("scalar")))

    def __repr__(self):
        return f"<jet {self.mode} T={np.round(self.T, 4).tolist()} amp={self.amplitude!r}>"


# --- generators ----------------------------------------------------------------


@dataclass(frozen=True)
class Shear:
    A: tuple  # real symmetric, row tuples

    def matrix(self, n):
        A = _matrix(self.A, "Shear.matrix: A", n, real=True, symmetric=True)
        return np.block([[np.eye(n), A], [np.zeros((n, n)), np.eye(n)]])


@dataclass(frozen=True)
class Linear:
    B: tuple  # real invertible, row tuples

    def matrix(self, n):
        B, Binv = _substitution(self.B, n, "Linear.matrix")
        return np.block([[B, np.zeros((n, n))], [np.zeros((n, n)), Binv.T]])


@dataclass(frozen=True)
class Fourier:
    variables: tuple | None = None  # None = all

    def matrix(self, n):
        if self.variables is not None and len(self.variables) != n:
            raise SeriesError("partial Fourier has no single Sp matrix on the full block")
        return np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])


@dataclass(frozen=True)
class Central:
    power: int = 1


def word_matrix(word: Sequence, n: int) -> np.ndarray:
    """Projection to Sp of a word; entries act in list order, so the
    matrix is the reversed product."""
    M = np.eye(2 * n)
    for g in word:
        if not isinstance(g, Central):
            M = g.matrix(n) @ M
    return M


def act_shear(A, jet: GaussianJet) -> GaussianJet:
    return jet._with_parts(T=jet.T + _matrix(A, "act_shear: A", jet.n, real=True, symmetric=True))


def _substituted(amplitude: TruncatedSeries, rows, M) -> TruncatedSeries:
    """``amplitude`` with ``rows[k]`` replaced by ``sum_j M[k, j] u_j`` over the u's."""
    ctx = amplitude.ctx
    u = [ctx.variable(v) for v in ctx.variables if v != HBAR]
    return compose(amplitude, {v: linear_combination(ctx, zip(u, row)) for v, row in zip(rows, M)})


def act_gl(B, jet: GaussianJet) -> GaussianJet:
    Bm, Binv = _substitution(B, jet.n, "act_gl")
    T2 = Binv.T @ jet.T @ Binv
    amp = _substituted(jet.amplitude, jet.vars(), Binv)
    return jet._with_parts(T=(T2 + T2.T) / 2, amplitude=amp,
                           scalar=jet.scalar * abs(np.linalg.det(Bm)) ** -0.5)


def act_fourier(variables, jet: GaussianJet) -> GaussianJet:
    """Fourier transform on the block ``b`` named by ``variables`` (all u's
    for ``None``), in closed form (Folland, *Harmonic Analysis in Phase Space*,
    1989, ch. 4).  With ``b`` first and the rest ``r`` after, ``T = [[A, B],
    [B^t, D]]``; the integral is stationary at ``u_b = -A^{-1}(xi_b + B u_r)``
    and, renamed back to ``u``, has ``T' = [[-A^{-1}, -A^{-1}B], [-B^t A^{-1},
    D - B^t A^{-1} B]]``, the amplitude ``exp((ih/2) d_b.A^{-1} d_b) a`` there
    and the scalar times ``gaussian_prefactor(A)``.  A degenerate ``A`` raises
    :class:`UndefinedWeilActionError` in mode ``weil0`` and the prefactor's
    :class:`DegenerateHessianError` in mode ``weil``."""
    uvars = jet.vars()
    block = list(uvars if variables is None else variables)
    for v in block:
        if v not in uvars:
            what = "h, not a position variable" if v == HBAR else f"unknown variable {v!r}"
            raise SeriesError(f"act_fourier: the block names {what}")
    if len(set(block)) < len(block):
        raise SeriesError(f"act_fourier: the block {block} names a variable twice")
    b = [uvars.index(v) for v in block]
    rows = jet.T[b]  # [A, B], the block's rows of T
    try:
        pref = gaussian_prefactor(rows[:, b])
    except DegenerateHessianError:
        if jet.mode == "weil":
            raise
        raise UndefinedWeilActionError("act_fourier: degenerate block, action undefined") from None
    Ainv = np.linalg.inv(rows[:, b])
    # the critical map u_b -> -A^{-1}(u_b + B u_r), one row over all u per block variable
    crit = -Ainv @ rows
    crit[:, b] = -Ainv
    T2 = jet.T + rows.T @ crit  # D - B^t A^{-1} B in the rest
    T2[b], T2[:, b] = crit, crit.T
    amp = _substituted(exp_second_order(jet.amplitude, _wick_pairs(block, Ainv)), block, crit)
    return jet._with_parts(T=(T2 + T2.T) / 2, amplitude=amp, scalar=jet.scalar * pref)


def act_central(power: int, jet: GaussianJet) -> GaussianJet:
    return jet._with_parts(scalar=jet.scalar.mul_i_power(power))


def act_generator(g, jet: GaussianJet) -> GaussianJet:
    if isinstance(g, Shear):
        return act_shear(g.A, jet)
    if isinstance(g, Linear):
        return act_gl(g.B, jet)
    if isinstance(g, Fourier):
        return act_fourier(g.variables, jet)
    if isinstance(g, Central):
        return act_central(g.power, jet)
    raise SeriesError(f"unknown generator {g!r}")


def act_word(word: Sequence, jet: GaussianJet) -> GaussianJet:
    """Apply the word generator by generator, first entry first; an
    undefined step re-raises with its index."""
    out = jet
    for k, g in enumerate(word):
        try:
            out = act_generator(g, out)
        except UndefinedWeilActionError as exc:
            raise UndefinedWeilActionError(str(exc), step=k) from None
    return out


# --- canonical refactorization -------------------------------------------------


def factor_sp(M) -> list:
    """Factor a real symplectic matrix of even order with invertible
    lower-left block as Shear(A) Linear(B) Fourier Shear(C); entries act
    in list order.  ``M`` must satisfy ``M^t J M = J`` to within
    ``negligible`` against ``max|M|^2``."""
    M = _matrix(M, "factor_sp: M", real=True)
    m, odd = divmod(len(M), 2)
    if odd:
        raise SeriesError(f"factor_sp: M of order {len(M)} is not of even order")
    # M^t J M = J, judged against |M|^2; both generator conventions keep J
    J = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
    residual = np.abs(M.T @ J @ M - J).max(initial=0)
    if not negligible(residual, np.abs(M).max(initial=0) ** 2):
        raise SeriesError(f"factor_sp: M is not symplectic: |M^t J M - J| = {residual:.3g}")
    P, R, S = M[:m, :m], M[m:, :m], M[m:, m:]
    if is_singular(R):
        raise SeriesError("lower-left block not invertible: word not factorable here")
    Rinv = np.linalg.inv(R)
    B = -Rinv.T
    what = "factor_sp: M is not symplectic: its shear"
    A = _matrix(P @ Rinv, f"{what} A", symmetric=True, real=True)
    C = _matrix(Rinv @ S, f"{what} C", symmetric=True, real=True)
    A = (A + A.T) / 2
    C = (C + C.T) / 2
    word = [Shear(tuple(map(tuple, C))), Fourier(None),
            Linear(tuple(map(tuple, B))), Shear(tuple(map(tuple, A)))]
    return word


def jets_equal_mod_center(a: GaussianJet, b: GaussianJet, tol: float = 1e-8):
    """Compare jets up to a central scalar in {1, i, -1, -i}: (ok, lambda, residual)."""
    (T1, a1), (T2, b1) = a.flattened(), b.flattened()
    if np.max(np.abs(T1 - T2)) > tol:
        return False, None, float("inf")
    if b1.is_zero() or a1.is_zero():  # equal only when both are zero
        return (True, 1.0, 0.0) if b1.is_zero() == a1.is_zero() else (False, None, float("inf"))
    lead = max(b1.terms, key=lambda k: abs(b1.terms[k]))
    lam = a1.terms.get(lead, 0.0) / b1.terms[lead]
    best = min([1, 1j, -1, -1j], key=lambda c: abs(lam - c))
    resid = (a1 - b1 * best).max_abs()
    return resid <= tol * max(1.0, a1.max_abs()), best, resid
