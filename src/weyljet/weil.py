"""Formal Weil representation on Gaussian jets.

A Gaussian jet is ``scalar * exp(i T u^2 / 2h) * amplitude(u, h)``.  Mode
``weil`` keeps ``Im T`` positive definite (action everywhere defined);
mode ``weil0`` keeps ``T`` real, where the Fourier generator is only
partially defined and signals undefined elements instead of guessing a
branch.  Scalars track an exact phase exponent, a Laurent series in ``h``
and the central character as a power of ``i``.

Every matrix handed in (a jet's ``T``, a generator's block, the Sp matrix
of :func:`factor_sp`) is read by ``_matrix``, the float-matrix reader of
:mod:`weyljet.series`.  Every check on float data is scale-free: symmetry,
realness and degeneracy are judged against the largest entry of the
matrix judged, and symplecticity against its square, through
:func:`negligible` and :func:`is_singular`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import (HBAR, OscillatoryScalar, SeriesContext, SeriesError, TruncatedSeries,
                     _matrix, compose, is_singular, linear_combination, negligible,
                     quadratic_series)
from .stationary import DegenerateHessianError, hessian_matrix, stationary_phase


class UndefinedWeilActionError(SeriesError):
    def __init__(self, message, step=None):
        super().__init__(message + ("" if step is None else f" (word step {step})"))
        self.step = step


def jet_context(n: int, cap: int) -> SeriesContext:
    names = [f"u{i+1}" for i in range(n)] + [HBAR]
    return SeriesContext(names, cap)


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
        self.mode = mode
        self.ctx = amplitude.ctx
        self.n = len([v for v in self.ctx.variables if v != HBAR])
        T = _matrix(T, "GaussianJet: T", self.n, symmetric=True)
        if mode == "weil":
            im = (T - T.conj().T) / 2j
            vals = np.linalg.eigvalsh(im.real)
            if np.min(vals) <= 0:
                raise SeriesError("mode weil requires Im T positive definite")
        else:
            if not negligible(np.max(np.abs(T.imag)), np.max(np.abs(T))):
                raise SeriesError("mode weil0 requires real T")
        self.T = T
        self.amplitude = amplitude
        self.scalar = OscillatoryScalar.one(cap=self.ctx.cap) if scalar is None else scalar

    def vars(self) -> list[str]:
        return [v for v in self.ctx.variables if v != HBAR]

    def with_parts(self, T=None, amplitude=None, scalar=None) -> "GaussianJet":
        return GaussianJet(self.mode, self.T if T is None else T,
                           self.amplitude if amplitude is None else amplitude,
                           self.scalar if scalar is None else scalar)

    def flattened(self) -> tuple[np.ndarray, float, TruncatedSeries]:
        """(T, phase exponent, scalar Laurent folded into the amplitude)."""
        scalar = self.scalar
        amp = self.amplitude * scalar.series.map_vars({}, self.ctx) * (1j ** scalar.i_power)
        return self.T, float(scalar.exponent), amp

    def is_close(self, other: "GaussianJet", tol: float = 1e-9) -> bool:
        T1, e1, a1 = self.flattened()
        T2, e2, a2 = other.flattened()
        return (np.max(np.abs(T1 - T2)) <= tol and abs(e1 - e2) <= tol
                and a1.distance(a2) <= tol)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "T": [[[self.T[i, j].real, self.T[i, j].imag] for j in range(self.n)]
                  for i in range(self.n)],
            "scalar": self.scalar.to_json(),
            "amplitude": self.amplitude.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "GaussianJet":
        amp = TruncatedSeries.from_json(data["amplitude"])
        T = np.array([[complex(a, b) for a, b in row] for row in data["T"]])
        scal = OscillatoryScalar.from_json(data["scalar"])
        return GaussianJet(data["mode"], T, amp, scal)

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
        if isinstance(g, Central):
            continue
        M = g.matrix(n) @ M
    return M


def act_shear(A, jet: GaussianJet) -> GaussianJet:
    return jet.with_parts(T=jet.T + _matrix(A, "act_shear: A", jet.n, real=True, symmetric=True))


def act_gl(B, jet: GaussianJet) -> GaussianJet:
    Bm, Binv = _substitution(B, jet.n, "act_gl")
    T2 = Binv.T @ jet.T @ Binv
    T2 = (T2 + T2.T) / 2
    uvars = jet.vars()
    images = {vj: linear_combination(jet.ctx, [(jet.ctx.variable(vi), Binv[j, i])
                                               for i, vi in enumerate(uvars)
                                               if Binv[j, i]])
              for j, vj in enumerate(uvars)}
    amp = compose(jet.amplitude, images)
    scal = jet.scalar * (abs(np.linalg.det(Bm)) ** -0.5)
    return jet.with_parts(T=T2, amplitude=amp, scalar=scal)


def act_fourier(variables, jet: GaussianJet) -> GaussianJet:
    """(Partial) Fourier transform on a block of position jets.

    The engine decides degeneracy: in mode ``weil0`` a degenerate
    transformed block of ``T`` leaves the representation undefined at this
    element and raises :class:`UndefinedWeilActionError`; in mode ``weil``
    the engine's :class:`DegenerateHessianError` propagates.
    """
    uvars = jet.vars()
    block = list(uvars if variables is None else variables)
    try:
        reduced, pref, out = stationary_phase(quadratic_series(jet.ctx, jet.T, uvars),
                                              jet.amplitude, block)
    except DegenerateHessianError:
        if jet.mode == "weil0":
            raise UndefinedWeilActionError(
                "Fourier block of T is degenerate: action undefined at this element") from None
        raise
    # the prefactor carries the pinned branch for the block
    return GaussianJet(jet.mode, hessian_matrix(reduced, uvars), out, jet.scalar * pref)


def act_central(power: int, jet: GaussianJet) -> GaussianJet:
    return jet.with_parts(scalar=jet.scalar.mul_i_power(power))


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
    """Compare jets up to a central scalar in {1, i, -1, -i}.

    Returns (ok, lambda, residual)."""
    T1, e1, a1 = a.flattened()
    T2, e2, b1 = b.flattened()
    if np.max(np.abs(T1 - T2)) > tol or abs(e1 - e2) > tol:
        return False, None, float("inf")
    if b1.is_zero() and a1.is_zero():
        return True, 1.0, 0.0
    if b1.is_zero() or a1.is_zero():
        return False, None, float("inf")
    lead = max(b1.terms, key=lambda k: abs(b1.terms[k]))
    lam = a1.terms.get(lead, 0.0) / b1.terms[lead]
    best = min([1, 1j, -1, -1j], key=lambda c: abs(lam - c))
    resid = (a1 - b1 * best).max_abs()
    return resid <= tol * max(1.0, a1.max_abs()), best, resid
