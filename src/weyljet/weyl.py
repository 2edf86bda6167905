"""Moyal product, Weyl quantization, graded Lie data and the formal
automorphism groups acting on the algebra.

Variables: ``u1..un`` are the formal position jets, ``v1..vn`` the dual
momentum jets, ``h`` the deformation parameter (weight 2, Laurent
allowed).  The sign convention of the product gives ``[u, v] = -ih``;
this is stated here once because it fixes every downstream phase.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .series import (HBAR, NonTerminatingAdError, SeriesContext, SeriesError,
                     TruncatedSeries, compose, contract_product, exp_second_order,
                     invert_map, is_singular, linear_combination, negligible, power_sum)


class WeylAlgebra:
    """Ambient data for Weyl elements on R^{2n} jets."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.x = tuple(f"u{i+1}" for i in range(n))
        self.xi = tuple(f"v{i+1}" for i in range(n))
        self.ctx = SeriesContext(self.x + self.xi + (HBAR,), cap)

    @property
    def cap(self):
        return self.ctx.cap

    def extended(self, extra: int) -> "WeylAlgebra":
        """This algebra at ``cap + extra``, itself for none, for intermediates
        whose later steps lower the weighted degree."""
        return WeylAlgebra(self.n, self.cap + extra) if extra else self

    def lift(self, s: TruncatedSeries, extra: int) -> TruncatedSeries:
        return s.map_vars({}, self.extended(extra).ctx)

    def lower(self, s: TruncatedSeries) -> TruncatedSeries:
        return s.map_vars({}, self.ctx)

    def zero(self):
        return self.ctx.zero()

    def one(self):
        return self.ctx.one()

    def var(self, name, power=1):
        return self.ctx.variable(name, power)

    def hbar(self, power=1):
        return self.ctx.variable(HBAR, power)

    def _contract(self, f: TruncatedSeries, g: TruncatedSeries, pairs) -> TruncatedSeries:
        """``contract_product`` of two elements of this algebra."""
        if f.ctx != self.ctx or g.ctx != self.ctx:
            raise SeriesError("cap/context mismatch in bilinear product")
        return contract_product(f, g, pairs)


def _multi_indices(n: int, total: int):
    """Every multi-index of ``n`` entries summing to ``total``, once each."""
    for picks in itertools.combinations_with_replacement(range(n), total):
        alpha = [0] * n
        for i in picks:
            alpha[i] += 1
        yield tuple(alpha)


def moyal_star(A: WeylAlgebra, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Moyal product of Weyl symbols, truncated at the cap.

    exp((ih/2)(d_v . d_u' - d_u . d_v')) f(u, v) g(u', v') on the
    diagonal, with the primed derivatives acting on g, contracted monomial
    pair by monomial pair.  Exact up to the cap, inverse powers of h
    included.
    """
    pairs = ([(v, u, 0.5j) for u, v in zip(A.x, A.xi)]
             + [(u, v, -0.5j) for u, v in zip(A.x, A.xi)])
    return A._contract(f, g, pairs)


def commutator(A: WeylAlgebra, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    return moyal_star(A, f, g) - moyal_star(A, g, f)


def poisson_bracket(A: WeylAlgebra, f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """{f,g} = d_xi f . d_x g - d_x f . d_xi g, the classical bracket with
    {x, xi} = -1 under the product sign convention."""
    terms = []
    for xv, kv in zip(A.x, A.xi):
        terms += [(f.diff(kv) * g.diff(xv), 1), (f.diff(xv) * g.diff(kv), -1)]
    return linear_combination(A.ctx, terms)


# --- Weyl quantization: normal-ordered operator forms -------------------------


class NormalOperator:
    """Operator on C[[u, h]] written as sum C u^alpha (ih d_u)^beta h^c,
    stored through its normal symbol (u to the left)."""

    __slots__ = ("algebra", "symbol")

    def __init__(self, algebra: WeylAlgebra, symbol: TruncatedSeries):
        self.algebra = algebra
        self.symbol = symbol

    @staticmethod
    def _mixing(A: WeylAlgebra, s: TruncatedSeries, direction: complex) -> TruncatedSeries:
        # exp(direction * (ih/2) sum_j d_u d_v) applied to the symbol
        return exp_second_order(s, [(u, v, direction * 0.5j) for u, v in zip(A.x, A.xi)])

    def to_weyl(self) -> TruncatedSeries:
        return self._mixing(self.algebra, self.symbol, -1.0)

    def compose(self, other: "NormalOperator") -> "NormalOperator":
        # exp(ih d_v . d_u') a(u, v) b(u', v') on the diagonal
        A = self.algebra
        pairs = [(v, u, 1j) for u, v in zip(A.x, A.xi)]
        return NormalOperator(A, A._contract(self.symbol, other.symbol, pairs))

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        """Apply to a series in the position jets (and h): the momentum-free
        part of the normal symbol of this operator composed with f."""
        A = self.algebra
        if any(f.depends_on(kv) for kv in A.xi):
            raise SeriesError("operator argument depends on momentum jets")
        composed = self.compose(NormalOperator(A, f)).symbol
        return composed.filter_degree(A.xi, lambda d: d == 0)


def weyl_quantize(A: WeylAlgebra, w: TruncatedSeries) -> NormalOperator:
    """Symmetrized-product quantization u^a v^b -> sym(u^a, (ih d_u)^b)."""
    return NormalOperator(A, NormalOperator._mixing(A, w, +1.0))


def operator_from_action(A: WeylAlgebra, action: Callable[[TruncatedSeries], TruncatedSeries],
                         max_order: int) -> NormalOperator:
    """Reconstruct a normal symbol from the action on position monomials.

    Valid for operators of differential order at most ``max_order`` whose
    coefficients stay within the cap; the recovery is triangular in the
    derivative order.
    """
    ctx = A.ctx
    N = NormalOperator(A, ctx.zero())
    for order in range(max_order + 1):
        for gamma in _multi_indices(A.n, order):
            mono = ctx.monomial({v: g for v, g in zip(A.x, gamma)}, 1.0)
            residual = action(mono) - N.apply(mono)
            if residual.is_zero():
                continue
            scale = (1.0 / ((1j ** order) * math.prod(map(math.factorial, gamma))))
            block = residual * scale * A.hbar(-order)
            vmono = ctx.monomial({v: g for v, g in zip(A.xi, gamma)}, 1.0)
            N = NormalOperator(A, N.symbol + block * vmono)
    return N


# --- Lie elements and the exponentiated adjoint -------------------------------


@dataclass(frozen=True)
class LieElement:
    """(1/ih) payload with the bracket a*b - b*a.

    Tag "g" quotients out the central (1/ih)C[[h]] line: pure-h terms of
    the payload are dropped at construction.
    """

    algebra: WeylAlgebra
    payload: TruncatedSeries
    tag: str = "gtilde"

    def __post_init__(self):
        if self.tag not in ("g", "gtilde"):
            raise SeriesError("tag must be g or gtilde")
        if self.tag == "g":
            A = self.algebra
            cleaned = self.payload.filter_degree(A.x + A.xi, lambda d: d != 0)
            object.__setattr__(self, "payload", cleaned)

    def ad(self, w: TruncatedSeries) -> TruncatedSeries:
        # dividing the payload by h first keeps the product exact up to the cap
        return commutator(self.algebra, self.payload * self.algebra.hbar(-1), w) * -1j

    def graded_profile(self) -> list[int]:
        return sorted(d - 2 for d in self.payload.degrees(self.algebra.ctx.variables))


def exp_ad(h: LieElement, w: TruncatedSeries) -> TruncatedSeries:
    """sum_k ad(h)^k w / k!, summed until a term vanishes; raises
    :class:`NonTerminatingAdError` when truncation does not end the sum."""
    A = h.algebra
    return power_sum(w, lambda t, k: h.ad(t) * (1.0 / k), (A.cap + 2) * (A.cap + 2),
                     "adjoint series did not terminate")


def lie_classify(h: LieElement) -> dict:
    """Monomial-pattern membership in Lie(P), Lie(N) and k>=1, plus the
    graded profile of the payload."""
    A = h.algebra
    in_p = in_n = in_k1 = True
    for (*b, hp), c in h.payload.coefficients(A.xi + (HBAR,)).items():
        beta = sum(b)
        for xdeg in c.degrees(A.x):
            d = xdeg + beta + 2 * hp
            in_p &= (beta >= 1 and d >= 2) or (hp >= 1 and d >= 3)
            in_n &= (beta >= 2) or (hp >= 1 and beta >= 1) or (hp >= 2)
            in_k1 &= ((beta == 1 and hp == 0 and xdeg >= 2)
                      or (beta == 0 and hp == 1 and xdeg >= 1))
    return {
        "in_lie_p": in_p,
        "in_lie_n": in_n,
        "in_k_geq1": in_k1,
        "graded_profile": h.graded_profile(),
    }


# --- the K group ---------------------------------------------------------------


def _det(A: WeylAlgebra, rows: list[list[TruncatedSeries]]) -> TruncatedSeries:
    """The determinant of a square matrix of series, by the permutation
    sum; one for the empty matrix."""
    n = len(rows)
    out = A.zero()
    for perm in itertools.permutations(range(n)):
        # the sign of perm, by counting its inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        out = out + math.prod((rows[i][perm[i]] for i in range(n)), start=(-1) ** inv)
    return out


class KGroupElement:
    """Formal automorphism of the trivial half-density line bundle:

        f(u) -> exp(q(u)) f(g(u)) |det g'(u)|^{1/2}

    with g a formal diffeomorphism (invertible linear part) and q(0)=0.
    An element makes its multiplier and its conjugated momenta
    (:meth:`momenta`, which :func:`k_conjugate` uses) once, on first use.
    """

    def __init__(self, algebra: WeylAlgebra, images: Mapping[str, TruncatedSeries],
                 q: TruncatedSeries | None = None):
        A = algebra
        self.algebra = A
        ctx = A.ctx
        missing, stray = sorted(set(A.x) - set(images)), sorted(set(images) - set(A.x))
        if missing or stray:
            raise SeriesError(f"position-jet images missing for {missing}, stray for {stray}")
        self.images = {v: images[v] for v in A.x}
        self.q = ctx.zero() if q is None else q
        if any(s.ctx != ctx for s in [*self.images.values(), self.q]):
            raise SeriesError("images and multiplier exponent must live in the algebra's context")
        bad_vars = list(A.xi) + [HBAR]
        for v, s in self.images.items():
            if not negligible(s.constant_term(), s.max_abs()):
                raise SeriesError("diffeomorphism image has a constant term")
            if any(s.depends_on(b) for b in bad_vars):
                raise SeriesError("diffeomorphism must involve position jets only")
        if not negligible(self.q.constant_term(), self.q.max_abs()):
            raise SeriesError("multiplier exponent must vanish at the origin")
        if any(self.q.depends_on(b) for b in bad_vars):
            raise SeriesError("multiplier must involve position jets only")
        a = np.array([[self.images[xv].coefficient({uv: 1}) for uv in A.x]
                      for xv in A.x], dtype=complex)
        if is_singular(a):
            raise SeriesError("non-invertible linear part")
        self._multiplier = None  # made on first use, or given by the group law
        self._momenta = None  # made on first use

    @staticmethod
    def identity(algebra: WeylAlgebra) -> "KGroupElement":
        return KGroupElement(algebra, {v: algebra.var(v) for v in algebra.x})

    def _jacobian(self) -> list[list[TruncatedSeries]]:
        """The rows ``d g_i / d u_j`` of the Jacobian matrix of g."""
        return [[self.images[x].diff(u) for u in self.algebra.x] for x in self.algebra.x]

    def half_density_factor(self) -> TruncatedSeries:
        det = _det(self.algebra, self._jacobian())
        c0 = det.constant_term()
        return (det * (abs(c0) / c0)).unit_sqrt()

    def multiplier(self) -> TruncatedSeries:
        """``exp(q) |det g'|^{1/2}``, the factor the action multiplies by.
        Inverse and composite elements take theirs from the group law: their
        images are cut at the cap, so their Jacobian lacks its top degree."""
        if self._multiplier is None:
            self._multiplier = self.half_density_factor() * self.q.exp()
        return self._multiplier

    def momenta(self) -> tuple[NormalOperator, ...]:
        """The conjugated momenta ``k (ih d_j) k^{-1} = sum_i M_ij (v_i - ih
        lambda_i)``, made on first use: ``M = (Dg)^{-1}`` is the adjugate
        over the determinant, and ``lambda_i = d_i q + d_i det / (2 det)``
        is the gradient of the log of the multiplier."""
        if self._momenta is None:
            A, rows = self.algebra, self._jacobian()
            det = _det(A, rows)
            inv = det.unit_inverse()
            shifted = [A.var(v) - 1j * A.hbar() * (self.q.diff(u) + 0.5 * det.diff(u) * inv)
                       for u, v in zip(A.x, A.xi)]
            # M_ij det is the cofactor of row j and column i
            cofactor = [[_det(A, [r[:i] + r[i + 1:] for r in rows[:j] + rows[j + 1:]])
                         * (-1) ** (i + j) for i in range(A.n)] for j in range(A.n)]
            self._momenta = tuple(NormalOperator(A, inv * linear_combination(
                A.ctx, [(c * s, 1) for c, s in zip(cofactor[j], shifted)])) for j in range(A.n))
        return self._momenta

    def act(self, f: TruncatedSeries) -> TruncatedSeries:
        """The displayed action on series in the position jets."""
        A = self.algebra
        for kv in A.xi:
            if f.depends_on(kv):
                raise SeriesError("K acts on position-jet series")
        return compose(f, self.images) * self.multiplier()

    def inverse(self) -> "KGroupElement":
        """The inverse, made afresh on each call; its multiplier is the group law's."""
        inv_images = invert_map(self.images)
        out = KGroupElement(self.algebra, inv_images, -compose(self.q, inv_images))
        out._multiplier = compose(self.multiplier().unit_inverse(), inv_images)
        return out

    def extended(self, extra: int) -> "KGroupElement":
        """This element lifted into ``algebra.extended(extra)``, itself for
        none; a lift is made afresh and makes its own multiplier and momenta."""
        if not extra:
            return self
        X = self.algebra.extended(extra)
        return KGroupElement(X, {v: s.map_vars({}, X.ctx) for v, s in self.images.items()},
                             self.q.map_vars({}, X.ctx))

    def compose_with(self, other: "KGroupElement") -> "KGroupElement":
        """Element acting as self after other: (self*other).act = self.act o other.act."""
        A = self.algebra
        # (self(other f))(u) = e^{q_s(u)} e^{q_o(g_s u)} f(g_o(g_s u)) |...|
        images = {v: compose(other.images[v], self.images) for v in A.x}
        q = self.q + compose(other.q, self.images)
        out = KGroupElement(A, images, q)
        out._multiplier = self.multiplier() * compose(other.multiplier(), self.images)
        return out


def k_conjugate(k: KGroupElement, w: TruncatedSeries) -> TruncatedSeries:
    """Weyl symbol of k o W(w) o k^{-1}, through the generators: conjugation
    sends ``u`` to ``g(u)`` and ``ih d_j`` to ``V_j = k.momenta()[j]``, so
    the normal symbol ``sum_b a_b(u, h) v^b`` of ``w`` goes to ``sum_b
    a_b(g(u), h) V^b``, ``V^b`` the normal product, each made once per call.
    The ``V_j`` have degree >= 1 and are cut at the cap, and ``a_b o g``
    has at least the degree of the (u, h) part of ``a_b``, which
    quantization only raises: so at a cap raised by the depth of ``w`` in
    u and h alone, no cut term reaches the cap.  The lift is
    ``k.extended(extra)``: ``k`` itself, with its momenta, at no headroom.
    """
    A = k.algebra
    extra = max(0, -min(w.degrees(A.x + (HBAR,)), default=0))
    kx = k.extended(extra)
    X = kx.algebra
    symbol = compose(weyl_quantize(X, A.lift(w, extra)).symbol, kx.images)
    powers = {(0,) * A.n: NormalOperator(X, X.one())}

    def power(b):
        if b not in powers:
            j = next(j for j, p in enumerate(b) if p)
            powers[b] = power(b[:j] + (b[j] - 1,) + b[j + 1:]).compose(kx.momenta()[j])
        return powers[b]

    out = linear_combination(X.ctx, [(a * power(b).symbol, 1)
                                     for b, a in symbol.coefficients(A.xi).items()])
    return A.lower(NormalOperator(X, out).to_weyl())


# --- operator realization of exp of Lie elements -------------------------------


def lie_operator(h: LieElement) -> NormalOperator:
    """Normal operator of (1/ih) payload."""
    A = h.algebra
    return NormalOperator(A, weyl_quantize(A, h.payload).symbol * -1j * A.hbar(-1))


def exp_lie_apply(h: LieElement, f: TruncatedSeries) -> TruncatedSeries:
    """Apply exp((1/ih) payload-hat) to a position-jet series.

    Requires the operator to raise the filtration so the exponential
    terminates under truncation; inverse powers of h may appear when the
    payload sits outside Lie(P).
    """
    op = lie_operator(h)
    return power_sum(f, lambda t, k: op.apply(t) * (1.0 / k), 4 * h.algebra.cap + 8,
                     "operator exponential did not terminate")
