"""Exact Maslov cocycle arithmetic.

Everything in this module runs over exact rationals: signatures are
computed by fraction-free symmetric elimination, cocycle values are
half-integers stored as doubled integers, and phase-difference cocycles
evaluate to exact fractions.  Generating functions are
:class:`~weyljet.series.TruncatedSeries` with ``Fraction`` coefficients,
which the series kernel keeps exact and drops only when zero.  No
tolerance enters any statement here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .series import SeriesContext, TruncatedSeries


class MaslovError(ValueError):
    pass


# --- exact linear algebra -----------------------------------------------------


def _solve_rational(A: list[list[Fraction]], B: list[list[Fraction]]):
    """Solve A X = B exactly; raises MaslovError when A is singular."""
    n = len(A)
    m = len(B[0]) if B else 0
    M = [row[:] + Brow[:] for row, Brow in zip(A, B)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise MaslovError("singular system")
        M[col], M[piv] = M[piv], M[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def signature(S) -> int:
    """Exact signature of a nondegenerate rational symmetric matrix,
    by symmetric elimination with symmetric pivoting."""
    M = [[Fraction(x) for x in row] for row in S]
    n = len(M)
    if any(M[i][j] != M[j][i] for i in range(n) for j in range(n)):
        raise MaslovError("matrix is not symmetric")
    sig = 0
    idx = list(range(n))
    while idx:
        # find a nonzero diagonal entry, else create one by a congruence
        d = next((i for i in idx if M[i][i] != 0), None)
        if d is None:
            pair = next(((i, j) for i in idx for j in idx
                         if i != j and M[i][j] != 0), None)
            if pair is None:
                raise MaslovError("degenerate matrix")
            i, j = pair
            for k in range(n):
                M[i][k] = M[i][k] + M[j][k]
            for k in range(n):
                M[k][i] = M[k][i] + M[k][j]
            d = i
        pivot = M[d][d]
        sig += 1 if pivot > 0 else -1
        idx.remove(d)
        # exact symmetric Schur complement on the remaining block
        col = {r: M[r][d] for r in idx}
        for r in idx:
            if col[r] != 0:
                fr = col[r] / pivot
                for s in idx:
                    M[r][s] -= fr * M[d][s]
        for r in idx:
            M[r][d] = Fraction(0)
            M[d][r] = Fraction(0)
    return sig


# --- linear Grassmannian charts -------------------------------------------------


@dataclass(frozen=True)
class LagrangianFrame:
    """Chart presentation of a linear Lagrangian subspace on U_I:
    xi_I = A x_I + B xi_Ibar,  x_Ibar = -B^t x_I - C xi_Ibar."""
    n: int
    I: frozenset
    A: tuple
    B: tuple
    C: tuple


def chart_parameters(basis: Sequence[Sequence], I) -> LagrangianFrame:
    """Frame of the span of ``basis`` (rows (x, xi) of length 2n) in the
    chart U_I; raises when the projection is singular."""
    I = frozenset(int(i) for i in I)
    rows = [[Fraction(x) for x in row] for row in basis]
    n = len(rows)
    if any(len(r) != 2 * n for r in rows):
        raise MaslovError("basis rows must have length 2n")
    Ibar = [j for j in range(n) if j not in I]
    Ilist = sorted(I)
    free_cols = [j for j in Ilist] + [n + j for j in Ibar]
    dep_cols = [n + j for j in Ilist] + [j for j in Ibar]
    U = [[r[c] for c in free_cols] for r in rows]
    D = [[r[c] for c in dep_cols] for r in rows]
    try:
        Mt = _solve_rational(U, D)  # M^t with d = M u
    except MaslovError:
        raise MaslovError("subspace lies outside the chart U_I") from None
    M = [[Mt[j][i] for j in range(n)] for i in range(n)]
    k = len(Ilist)
    A = [row[:k] for row in M[:k]]
    B = [row[k:] for row in M[:k]]
    mBt = [row[:k] for row in M[k:]]
    mC = [row[k:] for row in M[k:]]
    for i in range(k):
        for j in range(k):
            if A[i][j] != A[j][i]:
                raise MaslovError("chart solve produced nonsymmetric A: not Lagrangian")
    for i in range(n - k):
        for j in range(n - k):
            if mC[i][j] != mC[j][i]:
                raise MaslovError("chart solve produced nonsymmetric C: not Lagrangian")
    for i in range(n - k):
        for j in range(k):
            if mBt[i][j] != -B[j][i]:
                raise MaslovError("chart solve inconsistent: not Lagrangian")
    C = [[-x for x in row] for row in mC]
    return LagrangianFrame(n, I, tuple(map(tuple, A)), tuple(map(tuple, B)),
                           tuple(map(tuple, C)))


def frame_basis(frame: LagrangianFrame) -> list[list[Fraction]]:
    """Basis rows regenerating the subspace of a frame: one row per free
    coordinate (x_I then xi_Ibar), dependents filled from the equations."""
    n = frame.n
    Ilist = sorted(frame.I)
    Ibar = [j for j in range(n) if j not in frame.I]
    A = [[Fraction(x) for x in r] for r in frame.A]
    B = [[Fraction(x) for x in r] for r in frame.B]
    C = [[Fraction(x) for x in r] for r in frame.C]
    k = len(Ilist)
    rows = []
    for s in range(n):
        xI = [Fraction(1) if t == s else Fraction(0) for t in range(k)]
        eI = [Fraction(1) if k + t == s else Fraction(0) for t in range(n - k)]
        x = [Fraction(0)] * n
        xi = [Fraction(0)] * n
        for a, i in enumerate(Ilist):
            x[i] = xI[a]
            xi[i] = sum(A[a][b] * xI[b] for b in range(k)) \
                + sum(B[a][b] * eI[b] for b in range(n - k))
        for a, j in enumerate(Ibar):
            xi[j] = eI[a]
            x[j] = -sum(B[b][a] * xI[b] for b in range(k)) \
                - sum(C[a][b] * eI[b] for b in range(n - k))
        rows.append(x + xi)
    return rows


def generating_quadratic(frame: LagrangianFrame) -> TruncatedSeries:
    """F_I(x_I, xi_Ibar) = x.Ax/2 + x.B xi + xi.C xi/2 generating the frame."""
    n = frame.n
    Ilist = sorted(frame.I)
    Ibar = [j for j in range(n) if j not in frame.I]
    names = [f"x{j+1}" for j in Ilist] + [f"e{j+1}" for j in Ibar]
    k = len(Ilist)
    terms: dict[tuple, Fraction] = {}

    def add(i, j, c):
        e = [0] * n
        e[i] += 1
        e[j] += 1
        terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + Fraction(c)

    for a in range(k):
        for b in range(k):
            add(a, b, Fraction(frame.A[a][b], 2))
    for a in range(k):
        for b in range(n - k):
            add(a, k + b, frame.B[a][b])
    for a in range(n - k):
        for b in range(n - k):
            add(k + a, k + b, Fraction(frame.C[a][b], 2))
    return SeriesContext(names, [1] * n, 2).from_terms(terms)


def linear_cocycle(basis: Sequence[Sequence], I, J) -> int:
    """Doubled half-integer cocycle value c_{IJ} for a linear Lagrangian:
    the signature of the exchanged-block Hessian of the U_I generating
    quadratic.  Requires the subspace to lie in both charts; it lies in
    U_J exactly when that Hessian is nondegenerate."""
    I = frozenset(int(i) for i in I)
    J = frozenset(int(j) for j in J)
    frame = chart_parameters(basis, I)
    n = frame.n
    Ilist = sorted(I)
    Ibar = [j for j in range(n) if j not in I]
    x_ex = sorted(I - J)           # x free in U_I, not in U_J
    xi_ex = sorted(J - I)          # xi free in U_I, x free in U_J
    pos = {("x", j): Ilist.index(j) for j in Ilist}
    pos.update({("e", j): len(Ilist) + Ibar.index(j) for j in Ibar})
    labels = [("x", j) for j in x_ex] + [("e", j) for j in xi_ex]
    if not labels:
        return 0
    k = len(Ilist)
    M = [[Fraction(frame.A[a][b]) for b in range(k)] + [Fraction(frame.B[a][b]) for b in range(n - k)]
         for a in range(k)]
    M += [[Fraction(frame.B[b][a]) for b in range(k)] + [Fraction(frame.C[a][b]) for b in range(n - k)]
          for a in range(n - k)]
    H = [[M[pos[p]][pos[q]] for q in labels] for p in labels]
    try:
        return signature(H)
    except MaslovError:
        raise MaslovError("subspace lies outside the chart U_J") from None


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

    @property
    def fiber_free(self):
        return tuple(j for j in range(self.n) if j not in self.base_free)

    def point_free_values(self, point) -> dict:
        x, xi = point
        vals = {f"x{j+1}": Fraction(x[j]) for j in self.base_free}
        vals.update({f"e{j+1}": Fraction(xi[j]) for j in self.fiber_free})
        return vals

    def point_on_chart(self, free_vals: Mapping[str, Fraction]):
        """Reconstruct the full phase-space point from free values via
        the chart equations xi_1 = F_x, x_2 = -F_e."""
        x = [Fraction(0)] * self.n
        xi = [Fraction(0)] * self.n
        for j in self.base_free:
            x[j] = Fraction(free_vals[f"x{j+1}"])
        for j in self.fiber_free:
            xi[j] = Fraction(free_vals[f"e{j+1}"])
        for j in self.base_free:
            xi[j] = Fraction(self.F.diff(f"x{j+1}").evaluate(free_vals))
        for j in self.fiber_free:
            x[j] = -Fraction(self.F.diff(f"e{j+1}").evaluate(free_vals))
        return tuple(x), tuple(xi)

    def contains_point(self, point) -> bool:
        vals = self.point_free_values(point)
        got = self.point_on_chart(vals)
        return got == (tuple(Fraction(v) for v in point[0]),
                       tuple(Fraction(v) for v in point[1]))

    def phase_on_l(self, point) -> Fraction:
        """phi restricted to L: sum over fiber-free of x_j xi_j plus F."""
        vals = self.point_free_values(point)
        x, xi = point
        total = self.F.evaluate(vals) + self.phase_shift
        for j in self.fiber_free:
            total += Fraction(x[j]) * Fraction(xi[j])
        return total

    def to_json(self):
        return {"chart_id": self.chart_id, "base_chart": self.base_chart,
                "n": self.n, "base_free": list(self.base_free),
                "F": self.F.to_json(),
                "phase_shift": [self.phase_shift.numerator, self.phase_shift.denominator]}

    @staticmethod
    def from_json(data) -> "SubdivisionChart":
        shift = data.get("phase_shift", [0, 1])
        return SubdivisionChart(data["chart_id"], data["base_chart"], data["n"],
                                tuple(data["base_free"]),
                                TruncatedSeries.from_json(data["F"]),
                                Fraction(shift[0], shift[1]))


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
    ex_x = sorted(set(beta.base_free) - set(gamma.base_free))
    ex_e = sorted(set(gamma.base_free) - set(beta.base_free))
    labels = [f"x{j+1}" for j in ex_x] + [f"e{j+1}" for j in ex_e]
    if not labels:
        return 0
    vals = beta.point_free_values(point)
    H = [[(beta.F.diff(p).diff(q)).evaluate(vals) for q in labels] for p in labels]
    try:
        return signature(H)
    except MaslovError:
        raise MaslovError("degenerate mixed Hessian at the point") from None


def alpha_cocycle(beta: SubdivisionChart, gamma: SubdivisionChart, point,
                  samples: int = 3) -> Fraction:
    """phi_beta - phi_gamma on L near the point; exact and locally
    constant.  A nonconstant difference across sampled nearby points
    signals inconsistent chart data."""
    if not beta.contains_point(point) or not gamma.contains_point(point):
        raise MaslovError("point does not satisfy both chart descriptions")
    base = beta.phase_on_l(point) - gamma.phase_on_l(point)
    vals = beta.point_free_values(point)
    names = list(vals)
    for s in range(1, samples + 1):
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
    sym = {}
    failures = []
    for (b, g), v in values.items():
        if b == g and v != 0:
            failures.append({"kind": "diagonal", "pair": [b, g]})
        sym[(b, g)] = v
    for (b, g), v in list(sym.items()):
        if (g, b) in sym:
            if sym[(g, b)] != -v:
                failures.append({"kind": "antisymmetry", "pair": [b, g]})
        else:
            sym[(g, b)] = -v
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
    report = {
        "charts": charts,
        "pairs": len(values),
        "triples_checked": triples_checked,
        "cocycle": not failures,
        "failures": failures,
    }
    if zero_cochain is not None:
        coboundary_ok = all(
            sym[(b, g)] == zero_cochain[b] - zero_cochain[g]
            for (b, g) in sym if b in zero_cochain and g in zero_cochain)
        report["trivialized_by_cochain"] = coboundary_ok
    return report
