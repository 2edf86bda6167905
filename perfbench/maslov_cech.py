"""Workload ``maslov_cech``: Cech checks of the linear Maslov cocycle of
seeded rational Lagrangian graphs {xi = S x} at n=4.

Each check asks ``chart_parameters`` for the frame of the graph in all 16
coordinate charts U_I, then computes ``linear_cocycle`` on every ordered
pair of a seeded subset of 4 to 6 member charts and hands the values to
``verify_cech_cocycle``.  The oracle works from S alone, in floating
point: the graph lies in U_I exactly when S restricted to the complement
of I is invertible, and its frame there is the Schur complement
A = S_II - S_IJ S_JJ^-1 S_JI, B = S_IJ S_JJ^-1, C = -S_JJ^-1 (J the
complement).  Every cocycle value is compared with the eigenvalue sign count
of the exchanged block of [[A, B], [B^t, C]]; antisymmetry and the zero
triple sums are checked again from the values, and the program's report
must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from weyljet.maslov import (MaslovError, chart_parameters, linear_cocycle,
                            verify_cech_cocycle)

from common import LENGTH, seeded_rng, size_class

N = 4
CHARTS = [frozenset(s) for k in range(N + 1) for s in itertools.combinations(range(N), k)]
DEGENERATE = 1e-9  # relative eigenvalue size below which the oracle calls a form degenerate
TOL = 1e-9
CHART_COUNTS = (4, 4, 5, 5, 6)  # charts in the Cech check, per size class


@dataclass
class Case:
    basis: list                    # rows (x, xi) spanning the graph, exact
    charts: list                   # the seeded subset of member charts
    frames: dict                   # oracle frame (A, B, C) per chart, None outside it


def chart_id(I) -> str:
    return "".join(str(i) for i in sorted(I)) or "-"


def oracle_frame(S: np.ndarray, I):
    """(A, B, C) of the graph in U_I, or None when it lies outside U_I."""
    Il = sorted(I)
    Jl = [j for j in range(N) if j not in I]
    S_JJ = S[np.ix_(Jl, Jl)]
    if Jl and abs(np.linalg.det(S_JJ)) < DEGENERATE:
        return None
    inv = np.linalg.inv(S_JJ) if Jl else np.zeros((0, 0))
    S_IJ = S[np.ix_(Il, Jl)]
    A = S[np.ix_(Il, Il)] - S_IJ @ inv @ S_IJ.T
    return A, S_IJ @ inv, -inv


def oracle_cocycle(frame, I, J):
    """Doubled cocycle value on U_I to U_J, or None when the exchanged block
    is degenerate (the graph sits on the overlap boundary)."""
    A, B, C = frame
    Il = sorted(I)
    Jbar = [j for j in range(N) if j not in I]
    M = np.block([[A, B], [B.T, C]])
    labels = [Il.index(j) for j in sorted(I - J)] + \
             [len(Il) + Jbar.index(j) for j in sorted(J - I)]
    if not labels:
        return 0
    vals = np.linalg.eigvalsh(M[np.ix_(labels, labels)])
    if np.min(np.abs(vals)) <= DEGENERATE * max(1.0, float(np.max(np.abs(vals)))):
        return None
    return int(np.sum(vals > 0) - np.sum(vals < 0))


def build(seed: int) -> list[Case]:
    rng = seeded_rng("maslov_cech", seed)
    cases = []
    for i in range(LENGTH):
        S = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(N)]
             for _ in range(N)]
        for r in range(N):
            for c in range(r):
                S[r][c] = S[c][r]
        Sf = np.array([[float(x) for x in row] for row in S])
        basis = [[Fraction(int(r == c)) for c in range(N)] + [S[c][r] for c in range(N)]
                 for r in range(N)]
        frames = {I: oracle_frame(Sf, I) for I in CHARTS}
        members = [I for I in CHARTS if frames[I] is not None]
        charts = rng.sample(members, min(len(members), CHART_COUNTS[size_class(i, 5)]))
        cases.append(Case(basis, charts, frames))
    return cases


def run(case: Case, call) -> dict:
    frames = {}
    for I in CHARTS:
        try:
            frames[I] = call(chart_parameters, case.basis, I)
        except MaslovError:
            frames[I] = None
    values = {}
    for I in case.charts:
        for J in case.charts:
            if I != J:
                try:
                    values[(I, J)] = call(linear_cocycle, case.basis, I, J)
                except MaslovError:
                    values[(I, J)] = None
    report = call(verify_cech_cocycle,
                  {(chart_id(I), chart_id(J)): v for (I, J), v in values.items()
                   if v is not None})
    return {"frames": frames, "values": values, "report": report}


def verify(case: Case, out: dict) -> list[str]:
    problems = []
    for I in CHARTS:
        got, want = out["frames"][I], case.frames[I]
        if (got is None) != (want is None):
            problems.append(f"chart {chart_id(I)}: membership {got is not None}, "
                            f"oracle {want is not None}")
        elif got is not None:
            d = max(float(np.max(np.abs(np.array(g, dtype=float).reshape(w.shape) - w)))
                    if w.size else 0.0
                    for g, w in zip((got.A, got.B, got.C), want))
            if d > TOL:
                problems.append(f"chart {chart_id(I)}: frame differs by {d:.3g}")
    values = out["values"]
    for (I, J), v in values.items():
        want = oracle_cocycle(case.frames[I], I, J)
        if v != want:
            problems.append(f"pair {chart_id(I)}->{chart_id(J)}: cocycle {v}, "
                            f"eigenvalue sign count {want}")
    defined = {p: v for p, v in values.items() if v is not None}
    for (I, J), v in defined.items():
        if (J, I) in defined and defined[(J, I)] != -v:
            problems.append(f"pair {chart_id(I)}/{chart_id(J)}: not antisymmetric")
    triples = 0
    for I, J, K in itertools.combinations(case.charts, 3):
        if all(p in defined for p in ((I, J), (J, K), (K, I))):
            triples += 1
            if defined[(I, J)] + defined[(J, K)] + defined[(K, I)] != 0:
                problems.append(f"triple {chart_id(I)},{chart_id(J)},{chart_id(K)}: "
                                f"nonzero sum")
    report = out["report"]
    # the report counts each unordered triple once per choice of its third chart
    if not report["cocycle"] or report["triples_checked"] != 3 * triples:
        problems.append(f"report: cocycle={report['cocycle']}, "
                        f"{report['triples_checked']} triples, expected {3 * triples}")
    return problems
