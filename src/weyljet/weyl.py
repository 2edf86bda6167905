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

from .series import (HBAR, SeriesContext, SeriesError, TruncatedSeries,
                     compose, contract_product, exp_second_order, invert_map,
                     is_singular, linear_combination, negligible, power_sum)


class NonTerminatingAdError(SeriesError):
    pass


class WeylAlgebra:
    """Ambient data for Weyl elements on R^{2n} jets."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.x = tuple(f"u{i+1}" for i in range(n))
        self.xi = tuple(f"v{i+1}" for i in range(n))
        self.ctx = SeriesContext(self.x + self.xi + (HBAR,), cap)
        self._ext: dict[int, "WeylAlgebra"] = {}

    @property
    def cap(self):
        return self.ctx.cap

    def extended(self, extra: int) -> "WeylAlgebra":
        """This algebra at ``cap + extra``, made once per headroom and itself
        for none, for intermediates whose later steps lower the weighted degree."""
        if extra and extra not in self._ext:
            self._ext[extra] = WeylAlgebra(self.n, self.cap + extra)
        return self._ext.get(extra, self)

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

    @classmethod
    def from_weyl(cls, A: WeylAlgebra, w: TruncatedSeries) -> "NormalOperator":
        return cls(A, cls._mixing(A, w, +1.0))

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
    return NormalOperator.from_weyl(A, w)


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
            block = (residual * scale).shift_exponent(HBAR, -order)
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
        return commutator(self.algebra, self.payload.shift_exponent(HBAR, -1), w) * -1j

    def graded_profile(self) -> list[int]:
        return sorted(d - 2 for d in self.payload.degrees(self.algebra.ctx.variables))


def exp_ad(h: LieElement, w: TruncatedSeries) -> TruncatedSeries:
    """sum_k ad(h)^k w / k!, summed until a term vanishes; raises
    :class:`NonTerminatingAdError` when truncation does not end the sum."""
    A = h.algebra
    result = power_sum(w, lambda t, k: h.ad(t) * (1.0 / k), (A.cap + 2) * (A.cap + 2))
    if result is None:
        raise NonTerminatingAdError("adjoint series did not terminate")
    return result


def lie_classify(h: LieElement) -> dict:
    """Monomial-pattern membership in Lie(P), Lie(N) and k>=1, plus the
    graded profile of the payload."""
    A = h.algebra
    ctx = A.ctx
    xi_idx = [ctx.index(v) for v in A.xi]
    x_idx = [ctx.index(v) for v in A.x]
    h_idx = ctx.index(HBAR)
    in_p = in_n = in_k1 = True
    for e, c in h.payload.terms.items():
        beta = sum(e[i] for i in xi_idx)
        xdeg = sum(e[i] for i in x_idx)
        hp = e[h_idx]
        d = ctx.weighted_degree(e)
        ok_p = (beta >= 1 and d >= 2) or (hp >= 1 and d >= 3)
        ok_n = (beta >= 2) or (hp >= 1 and beta >= 1) or (hp >= 2)
        ok_k1 = (beta == 1 and hp == 0 and xdeg >= 2) or \
                (beta == 0 and hp == 1 and xdeg >= 1)
        in_p &= ok_p
        in_n &= ok_n
        in_k1 &= ok_k1
    return {
        "in_lie_p": in_p,
        "in_lie_n": in_n,
        "in_k_geq1": in_k1,
        "graded_profile": h.graded_profile(),
    }


# --- the K group ---------------------------------------------------------------


class KGroupElement:
    """Formal automorphism of the trivial half-density line bundle:

        f(u) -> exp(q(u)) f(g(u)) |det g'(u)|^{1/2}

    with g a formal diffeomorphism (invertible linear part) and q(0)=0.
    An element makes its multiplier and its inverse once, on first use,
    and its lift into each extended algebra once (:meth:`extended`).
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
        self._inverse = None  # made on first use
        self._ext: dict[int, KGroupElement] = {}  # lifts, by headroom

    @staticmethod
    def identity(algebra: WeylAlgebra) -> "KGroupElement":
        return KGroupElement(algebra, {v: algebra.var(v) for v in algebra.x})

    def jacobian_det(self) -> TruncatedSeries:
        A = self.algebra
        n = A.n
        cols = [[self.images[A.x[i]].diff(A.x[j]) for j in range(n)] for i in range(n)]
        out = A.zero()
        for perm in itertools.permutations(range(n)):
            # the sign of perm, by counting its inversions
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            out = out + math.prod((cols[i][perm[i]] for i in range(n)), start=(-1) ** inv)
        return out

    def half_density_factor(self) -> TruncatedSeries:
        det = self.jacobian_det()
        c0 = det.constant_term()
        unit = det * (1.0 / c0)
        return unit.unit_sqrt() * math.sqrt(abs(c0))

    def multiplier(self) -> TruncatedSeries:
        """``exp(q) |det g'|^{1/2}``, the factor the action multiplies by.
        Inverse and composite elements take theirs from the group law: their
        images are cut at the cap, so their Jacobian lacks its top degree."""
        if self._multiplier is None:
            self._multiplier = self.half_density_factor() * self.q.exp()
        return self._multiplier

    def act(self, f: TruncatedSeries) -> TruncatedSeries:
        """The displayed action on series in the position jets."""
        A = self.algebra
        for kv in A.xi:
            if f.depends_on(kv):
                raise SeriesError("K acts on position-jet series")
        return compose(f, self.images) * self.multiplier()

    def inverse(self) -> "KGroupElement":
        """The inverse, made on first use; its multiplier is the group law's."""
        if self._inverse is None:
            inv_images = invert_map(self.images)
            out = KGroupElement(self.algebra, inv_images, -compose(self.q, inv_images))
            out._multiplier = compose(self.multiplier().unit_inverse(), inv_images)
            self._inverse = out
        return self._inverse

    def extended(self, extra: int) -> "KGroupElement":
        """This element lifted into ``algebra.extended(extra)``, made once per
        headroom and itself for none; the lift makes its own multiplier and inverse."""
        if extra and extra not in self._ext:
            A = self.algebra
            self._ext[extra] = KGroupElement(
                A.extended(extra), {v: A.lift(s, extra) for v, s in self.images.items()},
                A.lift(self.q, extra))
        return self._ext.get(extra, self)

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
    """Weyl symbol of k o W(w) o k^{-1}.

    Conjugation preserves the differential order, so the symbol is
    reconstructed from the action on position monomials, at a cap raised
    by two depths: the order, because ``operator_from_action`` divides by
    ``h^order`` and multiplies by ``v^gamma``; and ``-w.min_degree()``,
    because the action multiplies by K's multiplier, cut at the cap, and
    terms of negative degree pull its missing top terms under the cap.
    The lift is ``k.extended(extra)``, which keeps its multiplier and
    inverse, so symbols conjugated by one ``k`` share that K-side work.
    """
    A = k.algebra
    order = max(w.degrees(A.xi), default=0)
    extra = order + max(0, -w.min_degree())
    kx = k.extended(extra)
    op = weyl_quantize(kx.algebra, A.lift(w, extra))

    def action(f):
        return kx.act(op.apply(kx.inverse().act(f)))

    return A.lower(operator_from_action(kx.algebra, action, order).to_weyl())


# --- operator realization of exp of Lie elements -------------------------------


def lie_operator(h: LieElement) -> NormalOperator:
    """Normal operator of (1/ih) payload."""
    A = h.algebra
    N = NormalOperator.from_weyl(A, h.payload)
    sym = (N.symbol * -1j).shift_exponent(HBAR, -1)
    return NormalOperator(A, sym)


def exp_lie_apply(h: LieElement, f: TruncatedSeries) -> TruncatedSeries:
    """Apply exp((1/ih) payload-hat) to a position-jet series.

    Requires the operator to raise the filtration so the exponential
    terminates under truncation; inverse powers of h may appear when the
    payload sits outside Lie(P).
    """
    op = lie_operator(h)
    out = power_sum(f, lambda t, k: op.apply(t) * (1.0 / k), 4 * h.algebra.cap + 8)
    if out is None:
        raise NonTerminatingAdError("operator exponential did not terminate")
    return out
