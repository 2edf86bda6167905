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
:func:`negligible`; a matrix is singular by :func:`is_singular`.  Every
float matrix handed in from outside is read by :func:`_matrix`, which
checks that it is numeric, square, finite, and real and symmetric when
asked, and names the caller in every message.

Admission contract: the public constructors (``TruncatedSeries(ctx,
terms)``, ``from_terms``, ``monomial`` and ``from_json``) check arity,
the cap, the exponent signs (only h goes negative), that each exponent
fits its packed field, and the coefficient of every term, which they
read by the number rule.
Exponents are integral: the constructors read each one as a sequence
index, as a context reads its cap, and store it as an int, so a float
exponent is an error.  ``map_vars`` validates a change of variables: it
adds the exponents of the renamed terms into their target slots and
reads them through ``TruncatedSeries(ctx, terms)``.  Only its path in
the same variables, a lift or a lower of the cap, trusts its operand
and cuts at the cap alone.  Operations closed over admitted terms
(``*``, ``+``, ``-``, ``diff``, ``filter_degree``, ``coefficients``,
``exp_second_order``, ``contract_product``, ``compose``,
``linear_combination`` and ``quadratic_series``) trust their operands,
check the packed fields of the keys they compute, and only drop the zero
coefficients of their result.

One number rule: :func:`_number` reads the scalar operand of ``+``,
``-``, ``*`` and ``linear_combination``, and every coefficient the
constructors read.  ``int`` and ``Fraction`` stay
exact, any other ``numbers.Number`` becomes ``complex``, and anything
else is an error.

One product kernel: ``*`` on two series is :func:`contract_product` with
no pairs, which keeps a walk of its own without per-term pair lists: one
walk for both, 11 lines shorter, was slower (``k_conjugate`` 1,114-1,135
checks/s against 1,172-1,191, ``weil_words`` 489-494 against 501-509, in
three alternating 8 s benchmark pairs at seed 1 on a shared 2-vCPU KVM
guest).  Multiplying by ``h^k`` is the product by the monomial ``h^k``:
exact for ``k <= 0``, and zero when ``2k > cap``, where that monomial is
itself cut.  One rung rule:
``contract_product`` and :func:`exp_second_order` climb the same
closed-form ladders, whose rung k differentiates k times by each
variable of a pair and gives ``h^k``.

One exponent format: terms are selected and measured by their weighted
degree in a set of variables (``filter_degree`` and ``degrees``) and
split by their exponents in them (``coefficients``), so no module
outside this one reads exponent tuples to pick terms.

One truncation rule: only the cap cuts a series.  The Laurent part of an
:class:`OscillatoryScalar` is a series in ``h`` alone and truncates as
every series does, and the power sums (``exp``, ``unit_inverse``,
``unit_sqrt`` and the exponentials of :mod:`weyljet.weyl`) run through
:func:`power_sum`, which stops only when a term vanishes and otherwise
raises :class:`NonTerminatingAdError` with its caller's message.  No
caller pre-screens the argument of a power sum or tests its result.

One jet iteration: :func:`fixed_point` runs ``x <- x0 - A^{-1} rest(x)``,
where ``rest`` raises the degree of an error in ``x`` by one, so from
``x0`` exact through degree 1 each pass fixes one degree more: the
filtration, not a tolerance, ends it after ``cap - 1`` passes.
:func:`invert_map` and the fiber engine's critical point run it.

One exact substitution: :func:`compose` builds each distinct product of
image powers once, from its prefix's, at a cap wider by the depth of the
most negative unsubstituted part of a term, and shifts it into each term
that needs it, so it keeps every term of degree <= cap.

Packed monomials (Monagan & Pearce): a series stores each term under one
Python int, its key.  The key holds the weighted degree in its top field
(signed, unbounded), then one 8-bit field per variable in the context's
order, the first variable most significant; the field of ``h`` holds its
exponent plus 64.  The layout depends on the variables only, so contexts
that differ in their cap share their keys.  Keys order as (weighted
degree, exponent tuple) do; a product's key is the sum of its factors'
keys less the key of the constant monomial, the bias; a rung of
:func:`_climb` adds one constant; and a term is within the cap exactly
when its key is below ``(cap + 1) << 8 n`` for n variables.  The top bit
of each field is a guard, zero in every admitted key: an exponent of a
jet variable runs from 0 to 127 and one of ``h`` from -64 to 63, the
constructors raise for one beyond its field, and every key a closed
operation computes is checked, so a carry between fields (only a deep
inverse power of ``h`` makes one) raises instead of aliasing another
term.  A cap is at most 381, which keeps every power of ``h`` a product
can reach within reach of the guard.  ``.terms`` is the public view
``exponent tuple -> coefficient``, decoded from the keys on each access;
nothing in this module reads it.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from numbers import Number
from operator import mul

import numpy as np

DEFAULT_EPS = 1e-9
HBAR = "h"  # the deformation parameter, weight 2

# the packed keys: bits per exponent field, the top one its guard; the
# offset that h's field adds to its exponent; and the largest cap, whose
# products keep h^k, k <= (cap + 1) / 2, within reach of the guard
_FIELD = 8
_HALF = 1 << (_FIELD - 1)
_MASK = (1 << _FIELD) - 1
_H_OFFSET = _HALF >> 1
_MAX_CAP = 2 * (_MASK - _H_OFFSET) - 1
_FIELD_RANGE = (f"a jet exponent runs from 0 to {_HALF - 1}, "
                f"one of h from {-_H_OFFSET} to {_HALF - _H_OFFSET - 1}")


class SeriesError(ValueError):
    pass


class NonTerminatingAdError(SeriesError):
    """A power sum that truncation does not end."""


class SeriesContext:
    """Shared ambient data for a family of series.

    Contexts are immutable; two contexts compare equal when all their
    fields agree, and series operations require equal contexts.  The
    layout of the packed keys is fixed by the variables alone.
    """

    __slots__ = ("variables", "weights", "cap", "_index", "_key", "_shifts", "_offsets",
                 "_units", "_zero", "_guard", "_deg_shift", "_top")

    def __init__(self, variables: Sequence[str], cap: int):
        variables = tuple(variables)
        if not all(isinstance(v, str) for v in variables):
            raise SeriesError(f"variable names {variables!r} are not all strings")
        if len(set(variables)) != len(variables):
            raise SeriesError("duplicate variable names")
        try:
            cap = operator.index(cap)
        except TypeError:
            raise SeriesError(f"cap {cap!r} is not an integer") from None
        if cap < 0:
            raise SeriesError("cap must be nonnegative")
        if cap > _MAX_CAP:
            raise SeriesError(f"cap {cap} is beyond {_MAX_CAP}, the largest packed keys hold")
        self.variables = variables
        self.weights = tuple(2 if v == HBAR else 1 for v in variables)
        self.cap = cap
        self._index = {v: i for i, v in enumerate(variables)}
        self._key = (variables, self.cap)
        n = len(variables)
        # the key of x^e is _zero + sum(e_i * _units[i]): field i at bit
        # _shifts[i] holds e_i + _offsets[i], and the weighted degree sits
        # at bit _deg_shift, above every field
        self._deg_shift = n * _FIELD
        self._shifts = tuple((n - 1 - i) * _FIELD for i in range(n))
        self._offsets = tuple(_H_OFFSET if v == HBAR else 0 for v in variables)
        self._units = tuple((w << self._deg_shift) + (1 << s)
                            for w, s in zip(self.weights, self._shifts))
        self._zero = sum(o << s for o, s in zip(self._offsets, self._shifts))
        self._guard = sum(_HALF << s for s in self._shifts)
        self._top = (cap + 1) << self._deg_shift  # the first key beyond the cap

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

    def _pack(self, exp: Sequence[int]) -> int | None:
        """The key of an exponent tuple of ints of this context's arity;
        ``None`` when an exponent is beyond its field."""
        if exp and (max(exp) >= _HALF or min(exp) < -_H_OFFSET):
            return None
        key = self._zero + sum(map(mul, exp, self._units))
        return None if key & self._guard else key

    def _unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a key."""
        return tuple([((key >> s) & _MASK) - o for s, o in zip(self._shifts, self._offsets)])

    def _exponent(self, exp: Mapping[str, int] | Sequence[int]) -> tuple[int, ...]:
        """An exponent tuple of ints, from a sequence or from a map ``name ->
        power``, each power read with ``operator.index``."""
        try:
            if isinstance(exp, Mapping):
                e = [0] * len(self.variables)
                for v, p in exp.items():
                    e[self.index(v)] = operator.index(p)
                return tuple(e)
            e = tuple(map(operator.index, exp))
        except TypeError:
            raise SeriesError(f"exponent {exp!r} is not integral") from None
        if len(e) != len(self.variables):
            raise SeriesError("exponent arity mismatch")
        return e

    def from_terms(self, terms: Mapping[tuple[int, ...], complex]) -> "TruncatedSeries":
        return TruncatedSeries(self, dict(terms))


# coefficient types stored as given; any other scalar is stored as complex
_KEPT = frozenset((complex, int, Fraction))


def _number(k, what: str = "scalar operand"):
    """The number rule for a scalar operand (or the coefficient ``what``
    names): ``int`` and ``Fraction`` as given, any other number as
    ``complex``; anything else is an error."""
    if k.__class__ in _KEPT:
        return k
    if isinstance(k, Number):
        return complex(k)
    raise SeriesError(f"{what} {k!r} is not a number")


def _json_field(data, key: str, what: str, read=None):
    """``read(data[key])``, or the field itself without ``read``, for the
    JSON reader ``what``: a missing or malformed field raises naming ``key``,
    and a document that is not an object lacks every field."""
    if not isinstance(data, dict) or key not in data:
        raise SeriesError(f"{what} JSON lacks the field {key!r}")
    try:
        return data[key] if read is None else read(data[key])
    except (TypeError, ValueError):
        raise SeriesError(f"{what} JSON has a malformed field {key!r}: {data[key]!r}") from None


def _admitted(ctx: SeriesContext, terms: dict) -> "TruncatedSeries":
    """A series over keyed terms that a closed operation built from
    admitted ones: arity, cap, exponent signs and fields and coefficient
    types already hold, so only the zero coefficients are dropped."""
    s = object.__new__(TruncatedSeries)
    s.ctx = ctx
    # no series changes its map once made, so one without zeros is shared
    s._packed = terms if all(terms.values()) else {k: c for k, c in terms.items() if c}
    return s


def _made(ctx: SeriesContext, terms: dict) -> "TruncatedSeries":
    """``_admitted`` for keys that a closed operation computed: a key with
    a guard bit set holds an exponent that outgrew its field."""
    if any(map(ctx._guard.__and__, terms)):
        raise SeriesError(f"an exponent outgrew its packed field: {_FIELD_RANGE}")
    return _admitted(ctx, terms)


class TruncatedSeries:
    """A finite sparse map from monomials to coefficients, keyed by the
    packed ints of the ``series`` module docstring; ``.terms`` decodes it
    to ``exponent tuple -> coefficient`` on each access.

    Coefficients are ``complex``, or ``int``/``Fraction`` kept exact: the
    ring is whatever the coefficients are, and a complex operand makes
    the result complex.  Exact zeros are dropped, and no other
    coefficient.  Instances are immutable; arithmetic returns new objects
    and results never depend on term insertion order.
    """

    __slots__ = ("ctx", "_packed")

    def __init__(self, ctx: SeriesContext, terms: Mapping[tuple[int, ...], complex]):
        self.ctx = ctx
        cap = ctx.cap
        weights = ctx.weights
        pack = ctx._pack
        clean: dict[int, complex] = {}
        nvars = len(ctx.variables)
        integral = operator.index
        for exp, c in terms.items():
            try:
                exp = tuple(map(integral, exp))
            except TypeError:
                raise SeriesError(f"exponent {exp!r} is not integral") from None
            if c.__class__ not in _KEPT:
                c = _number(c, "coefficient")
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
            key = pack(exp)
            if key is None:
                raise SeriesError(f"exponent {exp} is beyond its packed field: {_FIELD_RANGE}")
            clean[key] = c
        self._packed = clean

    # --- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        """The term map ``exponent tuple -> coefficient``, decoded afresh."""
        return dict(self._decoded())

    def _decoded(self) -> list:
        """``(exponent tuple, coefficient)`` of each term, in the order held."""
        unpack = self.ctx._unpack
        return [(unpack(k), c) for k, c in self._packed.items()]

    def __bool__(self):
        return bool(self._packed)

    def is_zero(self) -> bool:
        return not self._packed

    def coefficient(self, exp: Mapping[str, int] | Sequence[int]) -> complex:
        return self._packed.get(self.ctx._pack(self.ctx._exponent(exp)), 0)

    def constant_term(self) -> complex:
        return self._packed.get(self.ctx._zero, 0)

    def min_degree(self) -> int:
        """Smallest weighted degree present (0 for the zero series)."""
        return min(self._packed) >> self.ctx._deg_shift if self._packed else 0

    def max_degree(self) -> int:
        return max(self._packed) >> self.ctx._deg_shift if self._packed else 0

    def depends_on(self, var: str) -> bool:
        i = self.ctx.index(var)
        s, o = self.ctx._shifts[i], self.ctx._offsets[i]
        return any(((k >> s) & _MASK) != o for k in self._packed)

    def _degree_in(self, variables: Iterable[str]):
        """The weighted degree of a key in ``variables``: the weighted sum of
        their fields less that of their offsets."""
        ctx = self.ctx
        idx = [ctx.index(v) for v in variables]
        fields = [(ctx._shifts[i], ctx.weights[i]) for i in idx]
        base = sum(ctx.weights[i] * ctx._offsets[i] for i in idx)
        return lambda k: sum(w * ((k >> s) & _MASK) for s, w in fields) - base

    def degrees(self, variables: Iterable[str]) -> set[int]:
        """The weighted degrees in ``variables`` of the terms present."""
        return set(map(self._degree_in(variables), self._packed))

    def coefficients(self, variables: Sequence[str]) -> dict[tuple[int, ...], "TruncatedSeries"]:
        """``{e: c_e}`` with ``self = sum c_e x^e``, ``x`` the ``variables``,
        over the exponents ``e`` present; no ``c_e`` holds ``x``."""
        ctx = self.ctx
        idx = [ctx.index(v) for v in variables]
        if len(set(idx)) < len(idx):
            raise SeriesError(f"coefficients names a variable twice: {variables!r}")
        fields = [(ctx._shifts[i], ctx._offsets[i]) for i in idx]
        units = [ctx._units[i] for i in idx]
        out: dict[tuple[int, ...], dict] = {}
        for k, c in self._packed.items():
            e = tuple([((k >> s) & _MASK) - o for s, o in fields])
            out.setdefault(e, {})[k - sum(map(mul, e, units))] = c
        return {e: _admitted(ctx, t) for e, t in out.items()}

    def filter_degree(self, variables: Iterable[str], keep) -> "TruncatedSeries":
        """The terms whose weighted degree in ``variables`` satisfies ``keep``."""
        degree = self._degree_in(variables)
        return _admitted(self.ctx, {k: c for k, c in self._packed.items() if keep(degree(k))})

    def max_abs(self) -> float:
        return max((abs(c) for c in self._packed.values()), default=0.0)

    def is_close(self, other: "TruncatedSeries", tol: float = DEFAULT_EPS) -> bool:
        return (self - other).max_abs() <= tol

    def distance(self, other: "TruncatedSeries") -> float:
        return (self - other).max_abs()

    # --- ring operations ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ctx == other.ctx and self._packed == other._packed

    __hash__ = None

    def _check(self, other: "TruncatedSeries"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise SeriesError("series context mismatch")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self.ctx.constant(_number(other))
        self._check(other)
        out = dict(self._packed)
        get = out.get
        for k, c in other._packed.items():
            out[k] = get(k, 0) + c
        return _admitted(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return _admitted(self.ctx, {k: -c for k, c in self._packed.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = self.ctx.constant(_number(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return contract_product(self, other, ())
        other = _number(other)
        return _admitted(self.ctx, {k: v * other for k, v in self._packed.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        try:
            k = operator.index(k)
        except TypeError:
            raise SeriesError(f"power {k!r} is not an integer") from None
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
        ctx = self.ctx
        i = ctx.index(var)
        s, o, unit = ctx._shifts[i], ctx._offsets[i], ctx._units[i]
        out: dict[int, complex] = {}
        get = out.get
        for k, c in self._packed.items():
            p = ((k >> s) & _MASK) - o
            if p == 0:
                continue
            k -= unit
            out[k] = get(k, 0) + c * p
        return _made(ctx, out)

    # --- composition-grade helpers ---------------------------------------

    def exp(self) -> "TruncatedSeries":
        """exp of a series whose terms all have positive weighted degree."""
        return power_sum(self.ctx.one(), lambda t, k: t * self * (1.0 / k),
                         self.ctx.cap + 1, "exp: the argument has terms of degree <= 0")

    def _unit_part(self, what: str):
        """``(c0, u)`` with ``self = c0 (1 + u)``; ``u`` is ``self / c0``
        less its constant term, which cancels to an exact zero."""
        c0 = self.constant_term()
        if negligible(c0, self.max_abs()):
            raise SeriesError(f"{what} of a non-unit series")
        t = self * (1.0 / c0)
        return c0, t - t.constant_term()

    def unit_inverse(self) -> "TruncatedSeries":
        c0, u = self._unit_part("unit_inverse: inverse")
        minus_u = -u
        return power_sum(self.ctx.one(), lambda t, k: t * minus_u, self.ctx.cap + 1,
                         "unit_inverse: the argument has terms of degree <= 0 "
                         "besides its constant") * (1.0 / c0)

    def unit_sqrt(self) -> "TruncatedSeries":
        """Square root of a series with positive real leading constant."""
        c0, u = self._unit_part("unit_sqrt: sqrt")
        if not negligible(c0.imag, self.max_abs()) or c0.real <= 0:
            raise SeriesError("unit_sqrt: expects a positive real lead")
        # the binomial coefficient C(1/2, k) is C(1/2, k - 1) (3/2 - k) / k
        return power_sum(self.ctx.one(), lambda t, k: t * u * ((1.5 - k) / k),
                         self.ctx.cap + 1, "unit_sqrt: the argument has terms of degree "
                         "<= 0 besides its constant") * math.sqrt(c0.real)

    def evaluate(self, point: Mapping[str, complex]) -> complex:
        """Value at ``point`` (absent variables are 0); exact when the
        coefficients and the point's values are."""
        total = 0
        vals = [point.get(v, 0) for v in self.ctx.variables]
        vals = [_number(x) for x in vals]
        for e, c in self._decoded():
            t = c
            for x, p in zip(vals, e):
                if p:
                    t *= x ** p
            total += t
        return total

    def map_vars(self, mapping: Mapping[str, str], new_ctx: SeriesContext) -> "TruncatedSeries":
        """This series in ``new_ctx``, each variable ``v`` renamed to
        ``mapping.get(v, v)``; ``h`` maps to ``h`` and nothing else does,
        and a source variable absent from the target is allowed while
        unused.  In the same variables this lifts or lowers the cap on the
        keys; any other change (a renaming, a merge, an embedding) sums each
        term's exponents into their target slots and validates the result
        through ``TruncatedSeries(new_ctx, ...)``."""
        src = self.ctx
        if new_ctx.variables == src.variables and all(
                mapping.get(v, v) == v for v in src.variables):
            # the same layout: a lift copies the keys, a lower drops those beyond its cap
            top = new_ctx._top
            return _admitted(new_ctx, self._packed if new_ctx.cap >= src.cap else
                             {k: c for k, c in self._packed.items() if k < top})
        slots = []  # (source index, target index)
        for i, v in enumerate(src.variables):
            tv = mapping.get(v, v)
            if tv not in new_ctx._index:
                if self.depends_on(v):
                    raise SeriesError(f"unknown variable {tv!r}")
                continue
            if (v == HBAR) != (tv == HBAR):
                raise SeriesError(f"h maps to h only: cannot map {v!r} to {tv!r}")
            slots.append((i, new_ctx._index[tv]))
        out: dict[tuple[int, ...], complex] = {}
        for e, c in self._decoded():
            e2 = [0] * len(new_ctx.variables)
            for i, j in slots:
                e2[j] += e[i]
            e2 = tuple(e2)
            out[e2] = out.get(e2, 0) + c
        return TruncatedSeries(new_ctx, out)

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        ctx = self.ctx
        items = sorted(self._decoded(), key=lambda t: t[0])
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
        terms = {}
        for t in _json_field(data, "terms", "series", list):
            exp = _json_field(t, "exp", "series", tuple)
            if "num" not in t:
                terms[exp] = complex(*(_json_field(t, k, "series", float) for k in ("re", "im")))
            elif not _json_field(t, "den", "series", operator.index):
                raise SeriesError("series JSON has a term with denominator 0")
            else:
                terms[exp] = Fraction(_json_field(t, "num", "series", operator.index), t["den"])
        ctx = SeriesContext(_json_field(data, "variables", "series", tuple),
                            _json_field(data, "cap", "series"))
        return TruncatedSeries(ctx, terms)

    def __repr__(self):
        if not self._packed:
            return "<series 0>"
        bits = []
        for e, c in sorted(self._decoded(), key=lambda t: t[0])[:8]:
            mono = "*".join(f"{v}^{p}" for v, p in zip(self.ctx.variables, e) if p)
            c = f"{c:.4g}" if isinstance(c, complex) else str(c)
            bits.append(f"({c}){('*' + mono) if mono else ''}")
        more = "" if len(self._packed) <= 8 else f" +{len(self._packed) - 8} terms"
        return "<series " + " + ".join(bits) + more + ">"


def power_sum(x: TruncatedSeries, step, limit: int, what: str) -> TruncatedSeries:
    """``x + step(x, 1) + step(step(x, 1), 2) + ...``, summed until a term
    vanishes; raises :class:`NonTerminatingAdError` with the caller's
    message ``what`` when none has vanished after ``limit`` steps, so a sum
    that truncation does not end is never returned cut short."""
    total = term = x
    for k in range(1, limit + 1):
        term = step(term, k)
        if term.is_zero():
            return total
        total = total + term
    raise NonTerminatingAdError(what)


def _pair_plan(ctx: SeriesContext, pairs, op: str) -> list:
    """The pairs ``(a, b, c)`` with ``c`` nonzero as ``(index of a, index of
    b, c, step)``, ``c`` kept exact when exact and ``step`` the rung step of
    :func:`_climb`, the key of ``h / (a b)`` less the bias; ``a`` and ``b``
    weigh 1."""
    idx = [(ctx.index(a), ctx.index(b), _number(c)) for a, b, c in pairs if c]
    if not idx:
        return []
    if any(ctx.weights[t] != 1 for i, j, _ in idx for t in (i, j)):
        raise SeriesError(f"{op} contracts weight-1 variables only")
    u = ctx._units
    uh = u[ctx.index(HBAR)]
    return [(i, j, c, uh - u[i] - u[j]) for i, j, c in idx]


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


def _climb(terms: list, step: int, c, ladder: tuple[int, ...]):
    """The rung rule: append to ``terms`` the rungs k >= 1 of a pair ``(a,
    b, c)`` above each keyed term held.  Rung k lowers the exponents of a
    and b by k each (a's by 2k when a == b), raises that of ``h`` by k and
    multiplies the coefficient by ``c^k ladder[k]``: its key is the
    previous rung's plus ``step``, the key of ``h / (a b)`` less the bias."""
    for key, ce in terms[:]:
        ck = 1
        for k in range(1, len(ladder)):
            key += step
            ck *= c
            terms.append((key, ce * (ck * ladder[k])))


def _form_pairs(names: Sequence[str], K) -> list:
    """The pairs of ``exp(h d.K d)`` over ``names``, a matrix ``K`` of one
    row and column per name: ``K_ii`` on the diagonal, and ``K_ij + K_ji``
    above it for :func:`exp_second_order`."""
    return [(a, names[j], K[i, j] + K[j, i] if j > i else K[i, i])
            for i, a in enumerate(names) for j in range(i, len(names))]


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
    terms = dict(s._packed)
    shifts = ctx._shifts
    for i, j, c, step in _pair_plan(ctx, pairs, "exp_second_order"):
        si, sj = shifts[i], shifts[j]
        ladders: dict[tuple[int, int], list] = {}
        for key, ce in terms.items():
            p, q = (key >> si) & _MASK, (key >> sj) & _MASK
            if p > (i == j) and q > 0:  # the ladder has rungs k >= 1
                ladders.setdefault((p, q), []).append((key, ce))
        for (p, q), group in ladders.items():
            n = len(group)
            _climb(group, step, c, _ladder(p, q - 1, 2) if i == j else _ladder(p, q))
            for key, ce in group[n:]:
                terms[key] = terms.get(key, 0) + ce
    return _made(ctx, terms)


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
    powers of ``h`` included.  The walk goes through the keys in order, so
    in order of weighted degree, and stops at the first key of ``g`` whose
    product with the key of ``f`` lies beyond the cap.
    """
    f._check(g)
    ctx = f.ctx
    plan = _pair_plan(ctx, pairs, "contract_product") if pairs else []
    if plan and len(plan) > min(len({p[0] for p in plan}), len({p[1] for p in plan})):
        raise SeriesError("contract_product names a variable twice on one side")
    bias = ctx._zero
    top = ctx._top + bias  # ka + kb is within the cap while below this
    out: dict[int, complex] = {}
    get = out.get
    if not plan:
        b = sorted(g._packed.items())
        for ka, ca in sorted(f._packed.items()):
            room = top - ka
            for kb, cb in b:
                if kb >= room:
                    break
                key = ka + kb - bias
                out[key] = get(key, 0) + ca * cb
        return _made(ctx, out)
    # each key of f with its active pairs, those whose variable it holds:
    # (rung step, c, shift of the pair's variable in g, its exponent in f)
    shifts = ctx._shifts
    rungs = [(step, c, shifts[i], shifts[j]) for i, j, c, step in plan]
    a = [(k, c, [(step, cp, sb, p) for step, cp, sa, sb in rungs if (p := (k >> sa) & _MASK)])
         for k, c in sorted(f._packed.items())]
    b = sorted(g._packed.items())
    for ka, ca, active in a:
        room = top - ka
        for kb, cb in b:
            if kb >= room:
                break
            # the rung k = 0 of every ladder: the plain product of the pair
            key = ka + kb - bias
            out[key] = get(key, 0) + ca * cb
            if active:
                terms = [(key, ca * cb)]
                for step, c, sb, p in active:
                    q = (kb >> sb) & _MASK
                    if q:
                        _climb(terms, step, c, _ladder(p, q))
                for key, ce in terms[1:]:
                    out[key] = get(key, 0) + ce
    return _made(ctx, out)


def is_singular(M) -> bool:
    """Scale-free degeneracy test: the smallest singular value of ``M`` is
    at most ``DEFAULT_EPS`` times its largest; an empty matrix is regular."""
    sv = np.linalg.svd(np.asarray(M), compute_uv=False)
    return bool(sv.size) and bool(sv[-1] <= DEFAULT_EPS * sv[0])


def negligible(c, scale: float) -> bool:
    """Scale-free zero test: ``|c|`` is at most ``DEFAULT_EPS`` times
    ``scale``, the largest coefficient of the series judged."""
    return abs(c) <= DEFAULT_EPS * scale


def _matrix(x, what: str, n: int | None = None, real: bool = False,
            symmetric: bool = False) -> np.ndarray:
    """``x`` as a finite square matrix, ``n`` by ``n`` when given, real when
    ``real`` (else complex) and, when ``symmetric``, with ``X - X^t`` (not
    the conjugate transpose) negligible against its largest entry.  Every
    message starts with ``what``, the caller and its argument."""
    try:
        m = np.asarray(x, dtype=complex)
    except (TypeError, ValueError):
        raise SeriesError(f"{what} is not a numeric matrix") from None
    if n is not None and m.shape != (n, n):
        raise SeriesError(f"{what}: expected a {n}x{n} matrix, got {m.size} entries")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SeriesError(f"{what} of shape {m.shape} is not square")
    top = np.abs(m).max(initial=0)  # NaN when an entry is NaN
    if not np.isfinite(top):
        raise SeriesError(f"{what} has entries that are not finite")
    if real:
        if m.imag.any():
            raise SeriesError(f"{what}: expected a real matrix, got complex entries")
        m = m.real
    if symmetric and not negligible(np.abs(m - m.T).max(initial=0), top):
        raise SeriesError(f"{what} is not symmetric")
    return m


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
    fields = [(ctx._shifts[i], ctx._offsets[i], ctx._units[i], v) for i, v in listed]
    deg_shift = ctx._deg_shift
    # the terms by their positive listed powers, as (key of the unlisted part, coefficient)
    groups: dict[tuple, list] = {}
    depth = 0
    for key, c in f._packed.items():
        start = key
        factors = []
        for s, o, unit, v in fields:
            p = ((key >> s) & _MASK) - o
            if p:
                if p < 0:
                    raise SeriesError(f"negative exponent on listed variable {v!r}")
                factors.append((v, p))
                start -= p * unit
        depth = max(depth, -(start >> deg_shift))
        groups.setdefault(tuple(factors), []).append((start, c))
    wide = ctx if not depth else SeriesContext(ctx.variables, ctx.cap + depth)
    # the powers of each image made in this call, the first power at index 1;
    # the wide context shares the layout, so the keys carry over
    powers = {v: [None, _admitted(wide, images[v]._packed)] for _, v in listed}
    bias = ctx._zero
    products = {(): _admitted(wide, {bias: 1})}  # by factors, each made once
    top = ctx._top + bias
    out: dict[int, complex] = {}
    get = out.get
    for factors, group in groups.items():
        for k, (v, p) in enumerate(factors, 1):
            if factors[:k] not in products:
                cache = powers[v]
                while len(cache) <= p:
                    cache.append(cache[-1] * cache[1])
                prefix = products[factors[:k - 1]]
                products[factors[:k]] = prefix * cache[p] if k > 1 else cache[p]
        product = sorted(products[factors]._packed.items())
        for start, c in group:
            room = top - start
            for key, cp in product:
                if key >= room:
                    break
                key += start - bias
                out[key] = get(key, 0) + c * cp
    return _made(ctx, out)


def linear_combination(ctx: SeriesContext,
                       pairs: Iterable[tuple[TruncatedSeries, complex]]) -> TruncatedSeries:
    """``sum(scalar * series)`` over ``(series, scalar)`` in ``pairs``,
    accumulated in one term map; every series must live in ``ctx``."""
    out: dict[int, complex] = {}
    get = out.get
    for s, k in pairs:
        if s.ctx is not ctx and s.ctx != ctx:
            raise SeriesError("series context mismatch")
        k = _number(k)
        for key, c in s._packed.items():
            out[key] = get(key, 0) + c * k
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
    linear = 2 << ctx._deg_shift  # the keys of weighted degree <= 1 lie below this
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
        if any(key < linear and not negligible(c, scale)
               for key, c in higher[v]._packed.items()):
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
    """An element ``i^k * sum_j c_j h^j``: the central character in quarter
    turns, ``k`` mod 4 (:attr:`i_power`), times a Laurent part, a
    :class:`TruncatedSeries` in ``h`` alone (weight 2, inverse powers
    allowed) given as that series or as a map ``{j: c_j}`` read into a
    series with the given ``cap``; like every series it drops exact zeros
    only."""

    __slots__ = ("i_power", "series")
    # not a slot: the phase exponent of e^{ia/h}, always 0, kept for its one
    # reader, the weil_words checker (perfbench/weil_words.py l. 168-169)
    exponent = 0

    def __init__(self, laurent: Mapping[int, complex] | TruncatedSeries | None = None,
                 i_power: int = 0, cap: int = 16):
        if laurent is None or isinstance(laurent, Mapping):
            laurent = TruncatedSeries(SeriesContext((HBAR,), cap),
                                      {(k,): c for k, c in (laurent or {}).items()})
        elif not isinstance(laurent, TruncatedSeries):
            raise SeriesError(f"the Laurent part {laurent!r} is not a map, a series or None")
        if laurent.ctx.variables != (HBAR,):
            raise SeriesError("the Laurent part must be a series in h alone")
        try:
            self.i_power, self.series = operator.index(i_power) % 4, laurent
        except TypeError:
            raise SeriesError(f"i_power {i_power!r} is not an integer") from None

    @property
    def laurent(self) -> dict[int, complex]:
        """The Laurent part as ``{k: c_k}``."""
        return {e[0]: c for e, c in self.series._decoded()}

    @property
    def cap(self) -> int:
        return self.series.ctx.cap

    @staticmethod
    def one(cap: int = 16) -> "OscillatoryScalar":
        return OscillatoryScalar({0: 1.0}, cap=cap)

    def __mul__(self, other):
        if isinstance(other, OscillatoryScalar):
            return OscillatoryScalar(self.series * other.series, self.i_power + other.i_power)
        return OscillatoryScalar(self.series * _number(other), self.i_power)

    __rmul__ = __mul__

    def mul_i_power(self, k: int) -> "OscillatoryScalar":
        return OscillatoryScalar(self.series, self.i_power + k)

    def leading(self) -> tuple[int, complex]:
        """(hbar power, coefficient) of the lowest surviving order."""
        k = min(self.laurent, default=0)
        return k, self.coefficient(k)

    def coefficient(self, k: int) -> complex:
        return self.series.coefficient((k,)) * (1j ** self.i_power)

    def to_json(self) -> dict:
        return {"i_power": self.i_power, "laurent": self.series.to_json()}

    @staticmethod
    def from_json(data: dict) -> "OscillatoryScalar":
        laurent = TruncatedSeries.from_json(_json_field(data, "laurent", "oscillatory scalar"))
        expo = data.get("exponent", 0)  # older documents carry a phase exponent, always 0
        if expo not in (0, {"num": 0, "den": 1}):
            raise SeriesError(f"oscillatory scalar JSON field 'exponent' is {expo!r}, not 0")
        return OscillatoryScalar(laurent, _json_field(data, "i_power", "oscillatory scalar",
                                                      operator.index))

    def __repr__(self):
        return f"<osc i^{self.i_power} {self.series!r}>"

