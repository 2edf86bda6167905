"""Exact Maslov cocycle arithmetic.

Everything in this module is exact.  Its linear algebra runs on Python
integers, by fraction-free (Bareiss) elimination, every division of which
is exact.  Chart data stays integer from the solve to the cocycle: a chart
Hessian is an integer matrix N over one pivot d, and ``Fraction``s appear
only in :class:`LagrangianFrame` and the results of :func:`alpha_cocycle`.
Cocycle values are doubled half-integers, and generating functions
:class:`~weyljet.series.TruncatedSeries` with ``Fraction`` coefficients,
kept exact by the series kernel.  No tolerance enters any statement here.

One rule gives every Maslov cocycle value.  On the chart U_I a
Lagrangian is generated by F_I(x_I, xi_Ibar); on U_I and U_J the doubled
cocycle c_IJ is the signature of the Hessian of F_I over the coordinates
the two charts exchange, x_{I-J} then xi_{J-I}, and the Lagrangian lies
in U_J exactly when that block is nondegenerate.  For a linear
Lagrangian F_I = y.Hy/2 with y = (x_I, xi_Ibar) and the chart Hessian
H = [[A, B], [B^t, C]] of :class:`LagrangianFrame`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .series import SeriesContext, SeriesError, TruncatedSeries, quadratic_series


class MaslovError(ValueError):
    pass


# --- exact linear algebra -----------------------------------------------------


def _rational(x):
    """``x`` as an exact rational: ``int`` and ``Fraction`` as given, any
    other value (a float, a string such as ``'1/2'``) through ``Fraction``."""
    if x.__class__ in (int, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise MaslovError(f"entry {x!r} is not a finite rational number") from None


def _scaled(row, L=0) -> list[int]:
    """The rational ``row`` times ``L``, by default the lcm of its denominators."""
    L = L or math.lcm(*(x.denominator for x in row))
    return [x.numerator * (L // x.denominator) for x in row]


def _bareiss(M: list[list[int]]) -> int:
    """Fraction-free Gauss-Jordan elimination, in place, of the integer rows
    [A | B], A n x n; raises when A is singular.  Returns the last pivot d,
    det(A) up to sign, to which A is reduced: A X = B is solved by B / d."""
    n, prev = len(M), 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise MaslovError("singular system")
        M[col], M[piv] = M[piv], M[col]
        prow, p = M[col], M[col][col]
        for r in range(n):
            if r != col:
                f = M[r][col]
                M[r] = [(p * a - f * b) // prev for a, b in zip(M[r], prow)]
        prev = p
    return prev


def signature(S) -> int:
    """Exact signature of a nondegenerate rational symmetric matrix: its
    entries read, scaled to integers and checked symmetric for :func:`_signature`."""
    # a row that is not iterable, such as the 1 of [1], reads as empty: not square
    M = [[_rational(x) for x in row] if hasattr(row, "__iter__") else [] for row in S]
    n = len(M)
    if any(len(row) != n for row in M):
        raise MaslovError("signature: the matrix is not square")
    L = math.lcm(*(x.denominator for row in M for x in row))
    M = [_scaled(row, L) for row in M]
    if any(M[i][j] != M[j][i] for i in range(n) for j in range(i)):
        raise MaslovError("matrix is not symmetric")
    return _signature(M)


def _signature(M: list[list[int]]) -> int:
    """Signature of a nondegenerate symmetric integer matrix, overwritten, by
    fraction-free symmetric elimination with symmetric pivoting: each pivot is
    a leading principal minor D_k, and Jacobi's rule adds sign(D_k D_{k-1})."""
    sig, prev, idx = 0, 1, list(range(len(M)))
    while idx:
        # find a nonzero diagonal entry, else create one by a congruence
        d = next((i for i in idx if M[i][i]), None)
        if d is None:
            pair = next(((i, j) for i in idx for j in idx if i != j and M[i][j]), None)
            if pair is None:
                raise MaslovError("degenerate matrix")
            i, j = pair
            M[i] = [a + b for a, b in zip(M[i], M[j])]
            for row in M:
                row[i] += row[j]
            d = i
        p = M[d][d]
        sig += 1 if (p > 0) == (prev > 0) else -1
        idx.remove(d)
        for r in idx:  # the bordered minors; row and column d are not read again
            for s in idx:
                M[r][s] = (p * M[r][s] - M[r][d] * M[d][s]) // prev
        prev = p
    return sig


def _exchange_signature(sig, entry, I, J, message: str) -> int:
    """The cocycle rule: ``sig``, a signature, of the Hessian ``entry(p, q)``
    over the coordinates that U_I and U_J exchange, x_{I-J} then e_{J-I}; 0
    when they exchange none.  A degenerate block raises ``message``."""
    labels = [f"x{j+1}" for j in sorted(I - J)] + [f"e{j+1}" for j in sorted(J - I)]
    H = [[_rational(entry(p, q)) for q in labels] for p in labels]
    try:
        return sig(H)
    except MaslovError:
        raise MaslovError(message) from None


# --- linear Grassmannian charts -------------------------------------------------


def _chart(n: int, I):
    """Sorted I, its sorted complement and the names of the free
    coordinates (x_I, then e_Ibar) of the chart U_I in dimension n.
    n and the indices are what ``operator.index`` accepts."""
    try:
        n = operator.index(n)
    except TypeError:
        raise MaslovError(f"chart dimension n {n!r} is not an integer") from None
    try:
        Ilist = sorted({operator.index(i) for i in I})
    except TypeError:
        raise MaslovError("chart indices must be integers") from None
    if any(not 0 <= i < n for i in Ilist):
        raise MaslovError(f"chart index outside range({n})")
    Ibar = [j for j in range(n) if j not in Ilist]
    return Ilist, Ibar, [f"x{j+1}" for j in Ilist] + [f"e{j+1}" for j in Ibar]


@dataclass(frozen=True)
class LagrangianFrame:
    """Chart presentation of a linear Lagrangian subspace on U_I:
    xi_I = A x_I + B xi_Ibar,  x_Ibar = -B^t x_I - C xi_Ibar."""
    n: int
    I: frozenset
    A: tuple
    B: tuple
    C: tuple

    def hessian(self) -> list[list[Fraction]]:
        """H = [[A, B], [B^t, C]] over the free coordinates (x_I, xi_Ibar):
        the Hessian of the generating quadratic, and diag(1, -1) H maps the
        free coordinates to the dependent ones (xi_I, x_Ibar)."""
        rows = [list(a) + list(b) for a, b in zip(self.A, self.B)]
        return rows + [[b[j] for b in self.B] + list(c) for j, c in enumerate(self.C)]


def _chart_hessian(basis: Sequence[Sequence], I):
    """``(_chart(n, I), N, d)``: the chart Hessian on U_I of the span of
    ``basis`` is N/d, N an integer matrix and d the last pivot of the solve;
    raises when the span is outside U_I or N is not symmetric."""
    rows = [[_rational(x) for x in row] for row in basis]
    n = len(rows)
    if any(len(r) != 2 * n for r in rows):
        raise MaslovError("basis rows must have length 2n")
    chart = Ilist, Ibar, _ = _chart(n, I)
    k = len(Ilist)
    cols = Ilist + [n + j for j in Ibar] + [n + j for j in Ilist] + Ibar  # free, dependent
    M = [_scaled([r[c] for c in cols]) for r in rows]
    try:
        d = _bareiss(M)  # the dependent coordinates of row j are M[j][n:] / d
    except MaslovError:
        raise MaslovError("subspace lies outside the chart U_I") from None
    N = [[M[j][n + i] if i < k else -M[j][n + i] for j in range(n)] for i in range(n)]
    if any(N[i][j] != N[j][i] for i in range(n) for j in range(i)):
        raise MaslovError("chart Hessian is not symmetric: not Lagrangian")
    return chart, N, d


def chart_parameters(basis: Sequence[Sequence], I) -> LagrangianFrame:
    """Frame of the span of ``basis`` (rows (x, xi) of length 2n) in the
    chart U_I; raises when the projection is singular."""
    (Ilist, _, _), N, d = _chart_hessian(basis, I)
    k = len(Ilist)
    H = [tuple(Fraction(x, d) for x in row) for row in N]
    return LagrangianFrame(len(N), frozenset(Ilist), tuple(r[:k] for r in H[:k]),
                           tuple(r[k:] for r in H[:k]), tuple(r[k:] for r in H[k:]))


def frame_basis(frame: LagrangianFrame) -> list[list[Fraction]]:
    """Basis rows regenerating the subspace of a frame: one row per free
    coordinate (x_I then xi_Ibar), dependents read from the columns of H."""
    n = frame.n
    Ilist, Ibar, _ = _chart(n, frame.I)
    H = frame.hessian()
    rows = []
    for s in range(n):
        x = [Fraction(0)] * n
        xi = [Fraction(0)] * n
        for a, i in enumerate(Ilist):
            x[i] = Fraction(int(a == s))
            xi[i] = H[a][s]
        for a, j in enumerate(Ibar, len(Ilist)):
            xi[j] = Fraction(int(a == s))
            x[j] = -H[a][s]
        rows.append(x + xi)
    return rows


def generating_quadratic(frame: LagrangianFrame) -> TruncatedSeries:
    """F_I(x_I, xi_Ibar) = y.Hy/2, y = (x_I, xi_Ibar), generating the frame."""
    names = _chart(frame.n, frame.I)[2]
    return quadratic_series(SeriesContext(names, 2), frame.hessian(), names)


def linear_cocycle(basis: Sequence[Sequence], I, J) -> int:
    """Doubled half-integer cocycle value c_{IJ} for a linear Lagrangian:
    the cocycle rule on the chart Hessian N/d of U_I, with no frame built:
    the signature of the exchanged block of the integer N, times the sign of
    d.  The subspace must lie in both charts; in U_J exactly when that block
    is nondegenerate."""
    (Ilist, _, names), N, d = _chart_hessian(basis, I)
    return (1 if d > 0 else -1) * _exchange_signature(
        _signature, lambda p, q: N[names.index(p)][names.index(q)], set(Ilist),
        set(_chart(len(N), J)[0]), "subspace lies outside the chart U_J")


# --- submanifold charts ---------------------------------------------------------


@dataclass(frozen=True)
class SubdivisionChart:
    """Generating-function chart of a Lagrangian in T*R^n.

    ``base_free`` lists the x-indices parametrizing L together with the
    dual momenta of the complement; ``F`` is the generating function over
    variables x{i+1} (i in base_free) and e{j+1} (j outside).  The chart
    carries the base-coordinate chart id so pure base changes (case 1)
    are recognized explicitly, never inferred.
    """
    chart_id: str
    base_chart: str
    n: int
    base_free: tuple
    F: TruncatedSeries
    phase_shift: Fraction = Fraction(0)

    def __post_init__(self):
        _chart(self.n, self.base_free)  # rejects indices outside range(n)

    @property
    def fiber_free(self):
        return tuple(_chart(self.n, self.base_free)[1])

    def _point(self, point) -> tuple[tuple, tuple]:
        """``point`` read once: two sequences of n coordinates, x and xi,
        each coordinate read through ``_rational``."""
        try:
            x, xi = point
            shaped = len(x) == len(xi) == self.n
        except (TypeError, ValueError):
            shaped = False
        if not shaped:
            raise MaslovError(f"point {point!r} is not two sequences of {self.n} coordinates")
        return tuple(map(_rational, x)), tuple(map(_rational, xi))

    def _free_values(self, x, xi) -> dict:
        Ilist, Ibar, names = _chart(self.n, self.base_free)
        return dict(zip(names, [x[j] for j in Ilist] + [xi[j] for j in Ibar]))

    def point_free_values(self, point) -> dict:
        return self._free_values(*self._point(point))

    def point_on_chart(self, free_vals: Mapping[str, Fraction]):
        """Reconstruct the full phase-space point from free values via
        the chart equations xi_1 = F_x, x_2 = -F_e."""
        Ilist, Ibar, names = _chart(self.n, self.base_free)
        x = [Fraction(0)] * self.n
        xi = [Fraction(0)] * self.n
        for j, v in zip(Ilist, names):
            x[j] = _rational(free_vals[v])
            xi[j] = _rational(self.F.diff(v).evaluate(free_vals))
        for j, v in zip(Ibar, names[len(Ilist):]):
            xi[j] = _rational(free_vals[v])
            x[j] = -_rational(self.F.diff(v).evaluate(free_vals))
        return tuple(x), tuple(xi)

    def contains_point(self, point) -> bool:
        point = self._point(point)
        return self.point_on_chart(self._free_values(*point)) == point

    def phase_on_l(self, point) -> Fraction:
        """phi restricted to L: sum over fiber-free of x_j xi_j plus F."""
        x, xi = self._point(point)
        total = self.F.evaluate(self._free_values(x, xi)) + self.phase_shift
        for j in self.fiber_free:
            total += x[j] * xi[j]
        return total

    def to_json(self):
        return {"chart_id": self.chart_id, "base_chart": self.base_chart,
                "n": self.n, "base_free": list(self.base_free),
                "F": self.F.to_json(),
                "phase_shift": [self.phase_shift.numerator, self.phase_shift.denominator]}

    @staticmethod
    def from_json(data) -> "SubdivisionChart":
        if not isinstance(data, dict):
            raise MaslovError(f"chart JSON {data!r} is not an object")
        try:
            chart_id, base, n, free, F = [data[k] for k in ("chart_id", "base_chart", "n",
                                                            "base_free", "F")]
        except KeyError as exc:
            raise MaslovError(f"chart JSON lacks the field {exc.args[0]!r}") from None
        shift = data.get("phase_shift", [0, 1])
        if not isinstance(free, (list, tuple)):
            raise MaslovError(f"chart JSON has a malformed field 'base_free': {free!r}")
        if not isinstance(shift, (list, tuple)) or len(shift) != 2:
            raise MaslovError(f"chart JSON has a malformed field 'phase_shift': {shift!r}")
        num, den = map(_rational, shift)
        if not den:
            raise MaslovError("phase_shift has denominator 0")
        try:
            F = TruncatedSeries.from_json(F)
        except SeriesError as exc:
            raise MaslovError(f"chart JSON has a malformed field 'F': {exc}") from None
        return SubdivisionChart(chart_id, base, n, tuple(free), F, Fraction(num, den))


def submanifold_cocycle(beta: SubdivisionChart, gamma: SubdivisionChart,
                        point) -> int:
    """Doubled cocycle value for a chart pair at a point of L.

    Case 1 (different base charts, same subdivision roles) gives 0; case
    2 (same base chart, different subdivision) gives the signature of the
    mixed Hessian of the first chart's generating function over the
    exchanged blocks, evaluated at the point."""
    if beta.n != gamma.n:
        raise MaslovError("dimension mismatch")
    if beta.base_chart != gamma.base_chart:
        return 0
    vals = beta.point_free_values(point)
    return _exchange_signature(signature, lambda p, q: beta.F.diff(p).diff(q).evaluate(vals),
                               set(beta.base_free), set(gamma.base_free),
                               "degenerate mixed Hessian at the point")


ALPHA_SAMPLES = 3  # nearby points per free coordinate in alpha_cocycle


def alpha_cocycle(beta: SubdivisionChart, gamma: SubdivisionChart, point) -> Fraction:
    """phi_beta - phi_gamma on L near the point; exact and locally
    constant.  A nonconstant difference across ``ALPHA_SAMPLES`` nearby
    points per free coordinate signals inconsistent chart data."""
    if not beta.contains_point(point) or not gamma.contains_point(point):
        raise MaslovError("point does not satisfy both chart descriptions")
    base = beta.phase_on_l(point) - gamma.phase_on_l(point)
    vals = beta.point_free_values(point)
    names = list(vals)
    for s in range(1, ALPHA_SAMPLES + 1):
        shift = Fraction(1, 7 + 3 * s)
        for v in names:
            pert = dict(vals)
            pert[v] = pert[v] + shift
            p2 = beta.point_on_chart(pert)
            if not gamma.contains_point(p2):
                raise MaslovError("charts describe different Lagrangians near the point")
            diff = beta.phase_on_l(p2) - gamma.phase_on_l(p2)
            if diff != base:
                raise MaslovError("phase difference is not locally constant: "
                                  "inconsistent chart data")
    return base


# --- Cech verification ----------------------------------------------------------


def verify_cech_cocycle(values: Mapping[tuple, object],
                        zero_cochain: Mapping[str, object] | None = None) -> dict:
    """Check antisymmetry and all derivable triple sums of a 1-cochain.

    ``values`` maps ordered chart-id pairs to exact values (ints for
    doubled Maslov data, Fractions for phase cocycles).  When a 0-cochain
    is supplied, also reports whether it trivializes the cocycle."""
    charts = sorted({c for pair in values for c in pair})
    sym = dict(values)
    failures = []
    # each failure once: a diagonal pair is not checked for antisymmetry,
    # and a pair given both ways is checked in its sorted order only
    for (b, g), v in values.items():
        if b == g:
            if v != 0:
                failures.append({"kind": "diagonal", "pair": [b, g]})
        elif (g, b) not in values:
            sym[(g, b)] = -v
        elif b < g and values[(g, b)] != -v:
            failures.append({"kind": "antisymmetry", "pair": [b, g]})
    triples_checked = 0
    for i, b in enumerate(charts):
        for g in charts[i + 1:]:
            for d in charts:
                if d in (b, g):
                    continue
                if ((b, g) in sym and (g, d) in sym and (d, b) in sym):
                    total = sym[(b, g)] + sym[(g, d)] + sym[(d, b)]
                    triples_checked += 1
                    if total != 0:
                        failures.append({"kind": "triple", "triple": [b, g, d],
                                         "sum": str(total)})
    report = {"charts": charts, "pairs": len(values), "triples_checked": triples_checked,
              "cocycle": not failures, "failures": failures}
    if zero_cochain is not None:
        coboundary_ok = all(
            sym[(b, g)] == zero_cochain[b] - zero_cochain[g]
            for (b, g) in sym if b in zero_cochain and g in zero_cochain)
        report["trivialized_by_cochain"] = coboundary_ok
    return report
