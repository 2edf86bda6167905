"""Sparse truncated multivariate formal power series.

Every series lives in a :class:`SeriesContext`, which is its variable
names and its truncation cap.  One filtration holds for every context:
the deformation parameter ``h`` weighs 2 and every other variable (a jet
coordinate) weighs 1, so the weighted degree of a term is its total
degree plus the exponent of ``h``, and a term is kept only while that
stays at or below the cap.  Only ``h`` may carry a negative exponent
(bounded below through the filtration), which realizes the completed
coefficient rings with inverse powers of ``h``.

Coefficients are complex floats, or exact rationals (``int`` and
``Fraction``) that stay exact through construction, ``+``, ``-``, ``*``,
``diff``, ``evaluate`` and JSON.

One tolerance rule: the kernel drops exact zeros only, so series
identities hold to rounding.  A decision on float data (is this constant
term zero, is this matrix symmetric) compares against
``DEFAULT_EPS`` times the largest coefficient judged, through
:func:`negligible`; a matrix is singular by :func:`is_singular`.

Admission contract: the public constructors (``TruncatedSeries(ctx,
terms)``, ``from_terms``, ``monomial``, ``from_json``, ``shift_exponent``
and ``map_vars``) check arity, the cap, the exponent signs (only h goes
negative) and the coefficient type of every term.  Operations closed
over admitted terms (``*``, ``+``, ``-``, ``diff``, ``filter_degree``,
``exp_second_order``, ``contract_product``, ``compose``,
``linear_combination`` and ``quadratic_series``) trust their operands and
only drop the zero coefficients of their result; a scalar factor is
converted once, as the constructors convert coefficients.

One product kernel: ``*`` on two series is :func:`contract_product` with
no pairs, so one walk over the monomial pairs, in order of weighted
degree, makes the plain and the contracted products.  One rung rule:
``contract_product`` and :func:`exp_second_order` climb the same
closed-form ladders, whose rung k differentiates k times by each
variable of a pair and gives ``h^k``.

One exponent format: terms are selected and measured by their weighted
degree in a set of variables (``filter_degree`` and ``degrees``), so no
module outside this one reads exponent tuples to pick terms.

One truncation rule: only the cap cuts a series.  The Laurent part of an
:class:`OscillatoryScalar` is a series in ``h`` alone and truncates as
every series does, and the power sums (``exp``, ``unit_inverse``,
``unit_sqrt`` and the exponentials of :mod:`weyljet.weyl`) run through
:func:`power_sum`, which stops only when a term vanishes.  No caller
pre-screens the argument of a power sum: each raises when ``power_sum``
reports a sum that truncation does not end.

One jet iteration: :func:`fixed_point` runs ``x <- x0 - A^{-1} rest(x)``,
where ``rest`` raises the degree of an error in ``x`` by one, so from
``x0`` exact through degree 1 each pass fixes one degree more: the
filtration, not a tolerance, ends it after ``cap - 1`` passes.
:func:`invert_map` and the fiber engine's critical point run it.

One exact substitution: :func:`compose` builds each distinct product of
image powers once, from its prefix's, at a cap wider by the depth of the
most negative unsubstituted part of a term, and shifts it into each term
that needs it, so it keeps every term of degree <= cap.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_EPS = 1e-9
HBAR = "h"  # the deformation parameter, weight 2


class SeriesError(ValueError):
    pass


class SeriesContext:
    """Shared ambient data for a family of series.

    Contexts are immutable; two contexts compare equal when all their
    fields agree, and series operations require equal contexts.
    """

    __slots__ = ("variables", "weights", "cap", "_index", "_key")

    def __init__(self, variables: Sequence[str], cap: int):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise SeriesError("duplicate variable names")
        if cap < 0:
            raise SeriesError("cap must be nonnegative")
        self.variables = variables
        self.weights = tuple(2 if v == HBAR else 1 for v in variables)
        self.cap = int(cap)
        self._index = {v: i for i, v in enumerate(variables)}
        self._key = (variables, self.cap)

    def __eq__(self, other):
        return isinstance(other, SeriesContext) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (f"SeriesContext(vars={self.variables}, cap={self.cap})")

    def index(self, var: str) -> int:
        try:
            return self._index[var]
        except KeyError:
            raise SeriesError(f"unknown variable {var!r}") from None

    def weighted_degree(self, exp: tuple[int, ...]) -> int:
        return sum(map(mul, exp, self.weights))

    # --- constructors -------------------------------------------------

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries(self, {})

    def one(self) -> "TruncatedSeries":
        return self.constant(1)

    def constant(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self, {(0,) * len(self.variables): c})

    def variable(self, name: str, power: int = 1) -> "TruncatedSeries":
        return self.monomial({name: power})

    def monomial(self, exp: Mapping[str, int] | Sequence[int], coeff=1) -> "TruncatedSeries":
        return TruncatedSeries(self, {self._exponent(exp): coeff})

    def _exponent(self, exp: Mapping[str, int] | Sequence[int]) -> tuple[int, ...]:
        """An exponent tuple, from a sequence or from a map ``name -> power``."""
        if isinstance(exp, Mapping):
            e = [0] * len(self.variables)
            for v, p in exp.items():
                e[self.index(v)] = int(p)
            return tuple(e)
        return tuple(int(p) for p in exp)

    def from_terms(self, terms: Mapping[tuple[int, ...], complex]) -> "TruncatedSeries":
        return TruncatedSeries(self, dict(terms))


# coefficient types stored as given; any other scalar is stored as complex
_KEPT = frozenset((complex, int, Fraction))


def _admitted(ctx: SeriesContext, terms: dict) -> "TruncatedSeries":
    """A series over terms that a closed operation built from admitted
    ones: arity, cap, exponent signs and coefficient types already hold,
    so only the zero coefficients are dropped."""
    s = object.__new__(TruncatedSeries)
    s.ctx = ctx
    s.terms = {e: c for e, c in terms.items() if c}
    return s


class TruncatedSeries:
    """A finite sparse term map ``exponent tuple -> coefficient``.

    Coefficients are ``complex``, or ``int``/``Fraction`` kept exact: the
    ring is whatever the coefficients are, and a complex operand makes
    the result complex.  Exact zeros are dropped, and no other
    coefficient.  Instances are immutable; arithmetic returns new objects
    and results never depend on term insertion order.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: SeriesContext, terms: Mapping[tuple[int, ...], complex]):
        self.ctx = ctx
        cap = ctx.cap
        weights = ctx.weights
        clean: dict[tuple[int, ...], complex] = {}
        nvars = len(ctx.variables)
        for exp, c in terms.items():
            if c.__class__ not in _KEPT:
                c = complex(c)
            if not c:
                continue
            if len(exp) != nvars:
                raise SeriesError("exponent arity mismatch")
            if sum(map(mul, exp, weights)) > cap:
                continue
            if min(exp, default=0) < 0:
                for e, v in zip(exp, ctx.variables):
                    if e < 0 and v != HBAR:
                        raise SeriesError(f"negative exponent on variable {v!r}")
            clean[exp] = c
        self.terms = clean

    # --- inspection ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Mapping[str, int] | Sequence[int]) -> complex:
        return self.terms.get(self.ctx._exponent(exp), 0)

    def constant_term(self) -> complex:
        return self.terms.get((0,) * len(self.ctx.variables), 0)

    def min_degree(self) -> int:
        """Smallest weighted degree present (0 for the zero series)."""
        return min(self.degrees(self.ctx.variables), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(self.ctx.variables), default=0)

    def depends_on(self, var: str) -> bool:
        i = self.ctx.index(var)
        return any(e[i] != 0 for e in self.terms)

    def _degree_in(self, variables: Iterable[str]):
        """The weighted degree of an exponent tuple in ``variables``."""
        ctx = self.ctx
        idx = [ctx.index(v) for v in variables]
        w = [ctx.weights[i] for i in idx]
        return lambda e: sum(map(mul, map(e.__getitem__, idx), w))

    def degrees(self, variables: Iterable[str]) -> set[int]:
        """The weighted degrees in ``variables`` of the terms present."""
        degree = self._degree_in(variables)
        return {degree(e) for e in self.terms}

    def filter_degree(self, variables: Iterable[str], keep) -> "TruncatedSeries":
        """The terms whose weighted degree in ``variables`` satisfies ``keep``."""
        degree = self._degree_in(variables)
        return _admitted(self.ctx, {e: c for e, c in self.terms.items() if keep(degree(e))})

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def is_close(self, other: "TruncatedSeries", tol: float = DEFAULT_EPS) -> bool:
        return (self - other).max_abs() <= tol

    def distance(self, other: "TruncatedSeries") -> float:
        return (self - other).max_abs()

    # --- ring operations ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None

    def _check(self, other: "TruncatedSeries"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise SeriesError("series context mismatch")

    def __add__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            other = self.ctx.constant(other)
        self._check(other)
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) + c
        return _admitted(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return _admitted(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            other = self.ctx.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            if other.__class__ not in _KEPT:
                other = complex(other)
            return _admitted(self.ctx, {e: v * other for e, v in self.terms.items()})
        return contract_product(self, other, ())

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise SeriesError("negative powers: use unit_inverse")
        result = self.ctx.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # --- calculus -------------------------------------------------------

    def diff(self, var: str) -> "TruncatedSeries":
        i = self.ctx.index(var)
        out: dict[tuple[int, ...], complex] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[i]
        return _admitted(self.ctx, out)

    def shift_exponent(self, var: str, k: int) -> "TruncatedSeries":
        """Multiply by var**k at the exponent level (k may be negative
        for ``h``)."""
        i = self.ctx.index(var)
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] += k
            out[tuple(e2)] = c
        return TruncatedSeries(self.ctx, out)

    # --- composition-grade helpers ---------------------------------------

    def exp(self) -> "TruncatedSeries":
        """exp of a series whose terms all have positive weighted degree."""
        result = power_sum(self.ctx.one(), lambda t, k: t * self * (1.0 / k),
                           self.ctx.cap + 1)
        if result is None:
            raise SeriesError("exp: the argument has terms of degree <= 0")
        return result

    def _unit_part(self, what: str):
        """``(c0, u)`` with ``self = c0 (1 + u)``; ``u`` is ``self / c0``
        less its constant term, which cancels to an exact zero."""
        c0 = self.constant_term()
        if negligible(c0, self.max_abs()):
            raise SeriesError(f"{what} of a non-unit series")
        t = self * (1.0 / c0)
        return c0, t - t.constant_term()

    def unit_inverse(self) -> "TruncatedSeries":
        c0, u = self._unit_part("inverse")
        minus_u = -u
        result = power_sum(self.ctx.one(), lambda t, k: t * minus_u, self.ctx.cap + 1)
        if result is None:
            raise SeriesError("unit_inverse: the argument has terms of degree <= 0 "
                              "besides its constant")
        return result * (1.0 / c0)

    def unit_sqrt(self) -> "TruncatedSeries":
        """Square root of a series with positive real leading constant."""
        c0, u = self._unit_part("sqrt")
        if not negligible(c0.imag, self.max_abs()) or c0.real <= 0:
            raise SeriesError("unit_sqrt expects a positive real lead")
        # the binomial coefficient C(1/2, k) is C(1/2, k - 1) (3/2 - k) / k
        result = power_sum(self.ctx.one(), lambda t, k: t * u * ((1.5 - k) / k),
                           self.ctx.cap + 1)
        if result is None:
            raise SeriesError("unit_sqrt: the argument has terms of degree <= 0 "
                              "besides its constant")
        return result * math.sqrt(c0.real)

    def evaluate(self, point: Mapping[str, complex]) -> complex:
        """Value at ``point`` (absent variables are 0); exact when the
        coefficients and the point's values are."""
        total = 0
        vals = [point.get(v, 0) for v in self.ctx.variables]
        vals = [x if x.__class__ in _KEPT else complex(x) for x in vals]
        for e, c in self.terms.items():
            t = c
            for x, p in zip(vals, e):
                if p:
                    t *= x ** p
            total += t
        return total

    def map_vars(self, mapping: Mapping[str, str], new_ctx: SeriesContext) -> "TruncatedSeries":
        """Rename variables into another context (shared names keep their
        name); ``h`` maps to ``h`` and nothing else does.  Source variables
        absent from the target are allowed while unused."""
        src = self.ctx
        used = [any(e[i] for e in self.terms) for i in range(len(src.variables))]
        targets: list[int | None] = []
        for i, v in enumerate(src.variables):
            tv = mapping.get(v, v)
            if tv not in new_ctx._index:
                if used[i]:
                    raise SeriesError(f"unknown variable {tv!r}")
                targets.append(None)
                continue
            if (v == HBAR) != (tv == HBAR):
                raise SeriesError(f"h maps to h only: cannot map {v!r} to {tv!r}")
            targets.append(new_ctx.index(tv))
        n = len(new_ctx.variables)
        out: dict[tuple[int, ...], complex] = {}
        for e, c in self.terms.items():
            e2 = [0] * n
            for p, j in zip(e, targets):
                if j is not None:
                    e2[j] += p
            key = tuple(e2)
            out[key] = out.get(key, 0) + c
        return TruncatedSeries(new_ctx, out)

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        ctx = self.ctx
        items = sorted(self.terms.items(), key=lambda t: t[0])
        return {
            "variables": list(ctx.variables),
            "cap": ctx.cap,
            "terms": [{"exp": list(e), "re": c.real, "im": c.imag}
                      if isinstance(c, complex) else
                      {"exp": list(e), "num": c.numerator, "den": c.denominator}
                      for e, c in items],
        }

    @staticmethod
    def from_json(data: dict) -> "TruncatedSeries":
        ctx = SeriesContext(data["variables"], data["cap"])
        terms = {tuple(t["exp"]): Fraction(t["num"], t["den"]) if "num" in t
                 else complex(t["re"], t["im"]) for t in data["terms"]}
        return TruncatedSeries(ctx, terms)

    def __repr__(self):
        if not self.terms:
            return "<series 0>"
        bits = []
        for e, c in sorted(self.terms.items())[:8]:
            mono = "*".join(f"{v}^{p}" for v, p in zip(self.ctx.variables, e) if p)
            c = f"{c:.4g}" if isinstance(c, complex) else str(c)
            bits.append(f"({c}){('*' + mono) if mono else ''}")
        more = "" if len(self.terms) <= 8 else f" +{len(self.terms) - 8} terms"
        return "<series " + " + ".join(bits) + more + ">"


def power_sum(x: TruncatedSeries, step, limit: int) -> TruncatedSeries | None:
    """``x + step(x, 1) + step(step(x, 1), 2) + ...``, summed until a term
    vanishes; ``None`` when none has vanished after ``limit`` steps, so a
    sum that truncation does not end is never returned cut short."""
    total = term = x
    for k in range(1, limit + 1):
        term = step(term, k)
        if term.is_zero():
            return total
        total = total + term
    return None


def _pair_indices(ctx: SeriesContext, pairs, op: str) -> tuple[list, int | None]:
    """The pairs ``(a, b, c)`` with ``c`` nonzero as ``(index of a, index
    of b, c)``, ``c`` kept exact when exact, and the index of ``h``, which
    their rungs raise (``None`` without pairs); ``a`` and ``b`` weigh 1."""
    idx = [(ctx.index(a), ctx.index(b), c if c.__class__ in _KEPT else complex(c))
           for a, b, c in pairs if c]
    if any(ctx.weights[t] != 1 for i, j, _ in idx for t in (i, j)):
        raise SeriesError(f"{op} contracts weight-1 variables only")
    return idx, ctx.index(HBAR) if idx else None


@functools.cache
def _ladder(p: int, q: int, step: int = 1) -> tuple[int, ...]:
    """The rungs k = 0, 1, ... of one ladder: ``C(p, k) (q)_k`` with step
    1, and ``(p)_(2k) / k!`` with step 2 and ``q = p - 1``.  Rung k is rung
    k - 1 times ``p q / k``, an exact division, p and q lowered by step."""
    out = [1]
    while p > 0 and q > 0:
        out.append(out[-1] * p * q // len(out))
        p -= step
        q -= step
    return tuple(out)


def _climb(terms: list, i: int, j: int, ih: int, c, ladder: tuple[int, ...]):
    """The rung rule: append to ``terms`` the rungs k >= 1 of the pair
    ``(i, j, c)`` above each term held.  Rung k lowers exponents i and j
    by k each (i by 2k when i == j), raises that of ``h`` by k and
    multiplies the coefficient by ``c^k ladder[k]``."""
    for e, ce in terms[:]:
        e2 = list(e)
        ck = 1
        for k in range(1, len(ladder)):
            e2[i] -= 1
            e2[j] -= 1
            e2[ih] += 1
            ck *= c
            terms.append((tuple(e2), ce * (ck * ladder[k])))


def exp_second_order(s: TruncatedSeries,
                     pairs: Iterable[tuple[str, str, complex]]) -> TruncatedSeries:
    """``exp(h sum c d_a d_b) s`` over ``(a, b, c)`` in ``pairs``.

    The pairs commute, so each acts in turn on the terms the earlier ones
    grew, and the terms with exponents ``p`` of ``a`` and ``q`` of ``b``
    climb one ladder of :func:`_climb`: ``C(p, k) (q)_k`` for ``a != b``,
    and ``(p)_(2k) / k!`` for ``a = b``.  ``a`` and ``b`` weigh 1, so each
    rung keeps the weighted degree: the result is exact up to the cap,
    inverse powers of ``h`` included, and exact pairs keep exact terms exact.
    """
    ctx = s.ctx
    idx, ih = _pair_indices(ctx, pairs, "exp_second_order")
    terms = dict(s.terms)
    for i, j, c in idx:
        ladders: dict[tuple[int, int], list] = {}
        for e, ce in terms.items():
            if e[i] > (i == j) and e[j] > 0:  # the ladder has rungs k >= 1
                ladders.setdefault((e[i], e[j]), []).append((e, ce))
        for (p, q), group in ladders.items():
            n = len(group)
            _climb(group, i, j, ih, c, _ladder(p, q - 1, 2) if i == j else _ladder(p, q))
            for e, ce in group[n:]:
                terms[e] = terms.get(e, 0) + ce
    return _admitted(ctx, terms)


def contract_product(f: TruncatedSeries, g: TruncatedSeries,
                     pairs: Iterable[tuple[str, str, complex]]) -> TruncatedSeries:
    """``exp(h sum c d_a d_b) f(x) g(y)`` at ``y = x``, over ``(a, b, c)``
    in ``pairs``: ``d_a`` differentiates ``f`` alone and ``d_b`` ``g`` alone.
    With no pairs this is the product ``f * g``, which ``*`` computes here.

    A monomial pair with ``a``-exponent ``p`` in ``f`` and ``b``-exponent
    ``q`` in ``g`` climbs the ladder ``C(p, k) (q)_k`` of :func:`_climb`.
    ``a`` and ``b`` weigh 1, and no variable is named twice on one side,
    so the pairs act independently and each term keeps the weighted degree
    of its monomial pair: the product is exact up to the cap, inverse
    powers of ``h`` included.
    """
    f._check(g)
    ctx = f.ctx
    idx, ih = _pair_indices(ctx, pairs, "contract_product") if pairs else ((), None)
    if idx:
        if len({i for i, _, _ in idx}) < len(idx) or len({j for _, j, _ in idx}) < len(idx):
            raise SeriesError("contract_product names a variable twice on one side")
    w = ctx.weights
    # (weighted degree, exponent, coefficient), lowest degree first
    a = sorted([(sum(map(mul, e, w)), e, c) for e, c in f.terms.items()])
    b = sorted([(sum(map(mul, e, w)), e, c) for e, c in g.terms.items()])
    out: dict[tuple[int, ...], complex] = {}
    cap = ctx.cap
    get = out.get
    for da, ea, ca in a:
        room = cap - da
        for db, eb, cb in b:
            if db > room:
                break
            # the rung k = 0 of every ladder: the plain product of the pair
            e = tuple(map(add, ea, eb))
            out[e] = get(e, 0) + ca * cb
            if not idx:
                continue
            terms = [(e, ca * cb)]
            for i, j, c in idx:
                if ea[i] and eb[j]:
                    _climb(terms, i, j, ih, c, _ladder(ea[i], eb[j]))
            for e, ce in terms[1:]:
                out[e] = get(e, 0) + ce
    return _admitted(ctx, out)


def is_singular(M) -> bool:
    """Scale-free degeneracy test: the smallest singular value of ``M`` is
    at most ``DEFAULT_EPS`` times its largest; an empty matrix is regular."""
    sv = np.linalg.svd(np.asarray(M), compute_uv=False)
    return bool(sv.size) and bool(sv[-1] <= DEFAULT_EPS * sv[0])


def negligible(c, scale: float) -> bool:
    """Scale-free zero test: ``|c|`` is at most ``DEFAULT_EPS`` times
    ``scale``, the largest coefficient of the series judged."""
    return abs(c) <= DEFAULT_EPS * scale


# --- composition and map inversion ------------------------------------------


def compose(f: TruncatedSeries, images: Mapping[str, TruncatedSeries]) -> TruncatedSeries:
    """Substitute ``images[v]`` for each variable ``v`` of ``f``.

    ``f`` and its images share one context.  Unlisted variables substitute
    as themselves, so their exponents carry over, negative ones included;
    a listed variable must not carry a negative exponent.  Every image
    must have a vanishing constant term.  A term whose unlisted part has
    weighted degree ``-d < 0`` needs image powers up to degree ``cap + d``,
    so the powers are built at a cap wider by the largest such ``d``: with
    images of nonnegative degree, every term of degree <= cap is kept.
    Each distinct product of image powers is made once, from its prefix's,
    and a term ``c x^start`` adds ``c`` times it shifted by ``start``.
    """
    ctx = f.ctx
    listed = []
    for v, g in images.items():
        if g.ctx is not ctx and g.ctx != ctx:
            raise SeriesError(f"image of {v!r} lives in another context")
        if not negligible(g.constant_term(), g.max_abs()):
            raise SeriesError(f"image of {v!r} has nonzero constant term")
        listed.append((ctx.index(v), v))
    w = ctx.weights
    cap = ctx.cap
    # the terms by their positive listed powers, as (unlisted exponent, degree, coefficient)
    groups: dict[tuple, list] = {}
    depth = 0
    for e, c in f.terms.items():
        start = list(e)
        factors = []
        for i, v in listed:
            p = e[i]
            if p:
                if p < 0:
                    raise SeriesError(f"negative exponent on listed variable {v!r}")
                factors.append((v, p))
                start[i] = 0
        d = sum(map(mul, start, w))
        depth = max(depth, -d)
        groups.setdefault(tuple(factors), []).append((tuple(start), d, c))
    wide = ctx if not depth else SeriesContext(ctx.variables, cap + depth)
    # the powers of each image made in this call, the first power at index 1
    powers = {v: [None, _admitted(wide, images[v].terms)] for _, v in listed}
    products = {(): _admitted(wide, {(0,) * len(w): 1})}  # by factors, each made once
    out: dict[tuple[int, ...], complex] = {}
    get = out.get
    for factors, group in groups.items():
        for k, (v, p) in enumerate(factors, 1):
            if factors[:k] not in products:
                cache = powers[v]
                while len(cache) <= p:
                    cache.append(cache[-1] * cache[1])
                prefix = products[factors[:k - 1]]
                products[factors[:k]] = prefix * cache[p] if k > 1 else cache[p]
        product = sorted((sum(map(mul, e, w)), e, c) for e, c in products[factors].terms.items())
        for start, d, c in group:
            for dp, e, cp in product:
                if d + dp > cap:
                    break
                e2 = tuple(map(add, start, e))
                out[e2] = get(e2, 0) + c * cp
    return _admitted(ctx, out)


def linear_combination(ctx: SeriesContext,
                       pairs: Iterable[tuple[TruncatedSeries, complex]]) -> TruncatedSeries:
    """``sum(scalar * series)`` over ``(series, scalar)`` in ``pairs``,
    accumulated in one term map; every series must live in ``ctx``."""
    out: dict[tuple[int, ...], complex] = {}
    get = out.get
    for s, k in pairs:
        if s.ctx is not ctx and s.ctx != ctx:
            raise SeriesError("series context mismatch")
        if k.__class__ not in _KEPT:
            k = complex(k)
        for e, c in s.terms.items():
            out[e] = get(e, 0) + c * k
    return _admitted(ctx, out)


def quadratic_series(ctx: SeriesContext, Q, variables: Sequence[str]) -> TruncatedSeries:
    """``(1/2) z.Qz`` over the named variables, exact when ``Q`` is."""
    terms = []
    for i, a in enumerate(variables):
        q = Q[i][i]
        half = Fraction(q, 2) if q.__class__ in (int, Fraction) else q / 2
        terms.append((ctx.monomial({a: 2}), half))
        terms += [(ctx.monomial({a: 1, b: 1}), Q[i][j])
                  for j, b in enumerate(variables) if j > i]
    return linear_combination(ctx, terms)


def invert_map(images: Mapping[str, TruncatedSeries]) -> dict[str, TruncatedSeries]:
    """Invert the formal map ``y -> images[y] = A y + g_{>=2}(y)`` on its
    block ``y`` of variables: with zero constant terms and invertible ``A``,
    the inverse is the fixed point of ``x = A^{-1}(y - g_{>=2}(x))``."""
    names = sorted(images.keys())
    if not names:
        return {}
    ctx = images[names[0]].ctx
    m = len(names)
    A = np.zeros((m, m), dtype=complex)
    higher = {}  # the part g_{>=2} of each image
    for r, v in enumerate(names):
        g = images[v]
        if g.ctx != ctx:
            raise SeriesError("images live in different contexts")
        scale = g.max_abs()
        if not negligible(g.constant_term(), scale):
            raise SeriesError(f"image of {v!r} has nonzero constant term")
        row = [g.coefficient({w: 1}) for w in names]
        A[r] = row
        higher[v] = g - linear_combination(ctx, zip(map(ctx.variable, names), row))
        if any(ctx.weighted_degree(e) <= 1 and not negligible(c, scale)
               for e, c in higher[v].terms.items()):
            raise SeriesError(f"map image of {v!r} has linear part outside the block")
    if is_singular(A):
        raise SeriesError("singular linear part")
    Ainv = np.linalg.inv(A)
    x0 = {v: linear_combination(ctx, zip(map(ctx.variable, names), Ainv[i]))
          for i, v in enumerate(names)}
    return fixed_point(x0, Ainv, lambda x: [compose(higher[v], x) for v in names])


def fixed_point(x0: Mapping[str, TruncatedSeries], Ainv, rest) -> dict[str, TruncatedSeries]:
    """The jet iteration ``x <- x0 - Ainv . rest(x)`` from ``x = x0``, run
    ``cap - 1`` times; ``rest(x)`` lists one series per key of ``x0``."""
    ctx = next(iter(x0.values())).ctx
    x = x0
    for _ in range(ctx.cap - 1):
        r = rest(x)
        x = {v: linear_combination(ctx, [(x0[v], 1)] + list(zip(r, -Ainv[i])))
             for i, v in enumerate(x0)}
    return x


# --- oscillatory scalars ------------------------------------------------------


class OscillatoryScalar:
    """An element ``e^{i a / h} * sum_k c_k h^k`` with finite Laurent part.

    The phase exponent ``a`` is stored exactly when handed in as a
    Fraction or int (flagged by :attr:`exact`); quarter turns of the
    central character are tracked separately as an integer mod 4.  The
    Laurent part is a :class:`TruncatedSeries` in ``h`` alone (weight 2,
    inverse powers allowed), given either as that series or as a map
    ``{k: c_k}`` read into a series with the given ``cap``; like every
    series it drops exact zeros only.
    """

    __slots__ = ("exponent", "exact", "i_power", "series")

    def __init__(self, exponent=0, laurent: Mapping[int, complex] | TruncatedSeries | None = None,
                 i_power: int = 0, cap: int = 16):
        if isinstance(exponent, (int, Fraction)):
            self.exponent = Fraction(exponent)
            self.exact = True
        else:
            self.exponent = float(exponent)
            self.exact = False
        self.i_power = int(i_power) % 4
        if not isinstance(laurent, TruncatedSeries):
            ctx = SeriesContext((HBAR,), cap)
            laurent = TruncatedSeries(ctx, {(int(k),): c for k, c in (laurent or {}).items()})
        elif laurent.ctx.variables != (HBAR,):
            raise SeriesError("the Laurent part must be a series in h alone")
        self.series = laurent

    @property
    def laurent(self) -> dict[int, complex]:
        """The Laurent part as ``{k: c_k}``."""
        return {e[0]: c for e, c in self.series.terms.items()}

    @property
    def cap(self) -> int:
        return self.series.ctx.cap

    @staticmethod
    def one(cap: int = 16) -> "OscillatoryScalar":
        return OscillatoryScalar(0, {0: 1.0}, cap=cap)

    def is_zero(self) -> bool:
        return self.series.is_zero()

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, Fraction)):
            return OscillatoryScalar(self.exponent, self.series * other, self.i_power)
        if not isinstance(other, OscillatoryScalar):
            return NotImplemented
        if self.exact and other.exact:
            expo = self.exponent + other.exponent
        else:
            expo = float(self.exponent) + float(other.exponent)
        return OscillatoryScalar(expo, self.series * other.series,
                                 self.i_power + other.i_power)

    __rmul__ = __mul__

    def mul_i_power(self, k: int) -> "OscillatoryScalar":
        return OscillatoryScalar(self.exponent, self.series, self.i_power + k)

    def leading(self) -> tuple[int, complex]:
        """(hbar power, coefficient) of the lowest surviving order."""
        k = min(self.laurent, default=0)
        return k, self.coefficient(k)

    def coefficient(self, k: int) -> complex:
        return self.series.terms.get((k,), 0.0 + 0.0j) * (1j ** self.i_power)

    def to_json(self) -> dict:
        return {
            "exponent": {"num": self.exponent.numerator, "den": self.exponent.denominator}
            if self.exact else float(self.exponent),
            "exact": self.exact,
            "i_power": self.i_power,
            "laurent": self.series.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "OscillatoryScalar":
        expo = data["exponent"]
        if isinstance(expo, dict):
            expo = Fraction(expo["num"], expo["den"])
        return OscillatoryScalar(expo, TruncatedSeries.from_json(data["laurent"]),
                                 data.get("i_power", 0))

    def __repr__(self):
        return (f"<osc exp={self.exponent} i^{self.i_power} "
                f"laurent { {k: round(abs(v), 6) for k, v in sorted(self.laurent.items())} }>")

