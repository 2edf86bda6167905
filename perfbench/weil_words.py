"""Workload ``weil_words``: seeded Sp words (shear, linear, Fourier) acting
on seeded Gaussian jets in mode ``weil`` at n=2, cap=8.

Each check applies a word W to a jet, then the inverse word, and asks
for the jet back up to a central factor in {1, i, -1, -i}.  The T of every
result is compared with T transformed generator by generator in numpy:
T + A for a shear, B^-T T B^-1 for a linear substitution, -T^-1 for the
Fourier transform.  It also factors the Sp matrix of W, computed here in
numpy, with ``factor_sp``, checks that the canonical word multiplies back
to that matrix, and applies the canonical word to the jet, checking its T
the same way.  The canonical word's jet is not compared with W's jet: on
words of three or more generators the two can differ (see CHANGES.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from weyljet.weil import (Fourier, GaussianJet, Linear, Shear, act_word,
                          factor_sp, jet_context)

from common import LENGTH, crand, seeded_rng, size_class

N, CAP = 2, 8
TOL_T = 1e-9     # absolute, on T entries of size about 1
TOL_AMP = 1e-8   # relative, on the amplitude after the round trip
TOL_M = 1e-9     # absolute, on the entries of the Sp matrix
PARITY = Linear(((-1.0, 0.0), (0.0, -1.0)))


@dataclass
class Case:
    jet: GaussianJet
    word: list
    inverse: list
    matrix: np.ndarray
    amp_terms: dict


def _sym(rng, scale):
    a = np.array([[rng.uniform(-scale, scale) for _ in range(N)] for _ in range(N)])
    return (a + a.T) / 2


def _as_tuple(m):
    return tuple(map(tuple, np.asarray(m, dtype=float)))


def random_generator(rng):
    """A shear or a well-conditioned linear substitution."""
    if rng.random() < 0.5:
        return Shear(_as_tuple(_sym(rng, 1.0)))
    while True:
        B = np.array([[rng.uniform(-1.5, 1.5) for _ in range(N)] for _ in range(N)])
        if abs(np.linalg.det(B)) > 0.5 and np.linalg.cond(B) < 8:
            return Linear(_as_tuple(B))


def inverse_generator(g) -> list:
    if isinstance(g, Shear):
        return [Shear(_as_tuple(-np.asarray(g.A)))]
    if isinstance(g, Linear):
        return [Linear(_as_tuple(np.linalg.inv(np.asarray(g.B))))]
    # F^2 is the parity u -> -u up to a central factor, so F^-1 ~ F then parity
    return [Fourier(None), PARITY]


def generator_matrix(g) -> np.ndarray:
    """Sp matrix of a generator in the program's convention: [[I, A], [0, I]]
    for a shear, diag(B, B^-T) for a linear map, [[0, I], [-I, 0]] for the
    Fourier transform."""
    I, Z = np.eye(N), np.zeros((N, N))
    if isinstance(g, Shear):
        return np.block([[I, np.asarray(g.A)], [Z, I]])
    if isinstance(g, Linear):
        B = np.asarray(g.B)
        return np.block([[B, Z], [Z, np.linalg.inv(B).T]])
    return np.block([[Z, I], [-I, Z]])


def word_product(word) -> np.ndarray:
    M = np.eye(2 * N)
    for g in word:
        M = generator_matrix(g) @ M
    return M


def transform_T(T, word) -> np.ndarray:
    """T after each generator of the word, in order."""
    T = np.asarray(T, dtype=complex)
    for g in word:
        if isinstance(g, Shear):
            T = T + np.asarray(g.A)
        elif isinstance(g, Linear):
            Binv = np.linalg.inv(np.asarray(g.B))
            T = Binv.T @ T @ Binv
        else:
            T = -np.linalg.inv(T)
    return T


def build(seed: int) -> list[Case]:
    ctx = jet_context(N, CAP)
    rng = seeded_rng("weil_words", seed)
    cases = []
    for i in range(LENGTH):
        size = size_class(i, 5)
        fouriers = 1 + size // 3        # 1, 1, 1, 2, 2 Fourier generators
        while True:  # words whose matrix has a well-conditioned lower-left block
            word = [random_generator(rng) for _ in range(1 + size // 2)]
            for _ in range(fouriers):
                word.insert(rng.randint(0, len(word)), Fourier(None))
            M = word_product(word)
            R = M[N:, :N]
            if abs(np.linalg.det(R)) > 0.2 and np.linalg.cond(R) < 20:
                break
        X = np.array([[rng.uniform(-0.5, 0.5) for _ in range(N)] for _ in range(N)])
        T = _sym(rng, 1.0) + 1j * (X @ X.T + 0.5 * np.eye(N))
        amp = {(0, 0, 0): 1.0 + 0.0j}
        for j in range(1 + size // 2):  # weights 1, 2, 3; the weight-3 term carries h
            w = 1 + j
            hp = w // 3
            while True:
                a = rng.randint(0, w - 2 * hp)
                if (a, w - 2 * hp - a, hp) not in amp:
                    break
            amp[(a, w - 2 * hp - a, hp)] = crand(rng)
        jet = GaussianJet("weil", T, ctx.from_terms(amp))
        inverse = [h for g in reversed(word) for h in inverse_generator(g)]
        cases.append(Case(jet, word, inverse, M, amp))
    return cases


def run(case: Case, call) -> dict:
    out = call(act_word, case.word, case.jet)
    back = call(act_word, case.inverse, out)
    canon = call(factor_sp, case.matrix)
    canon_out = call(act_word, canon, case.jet)
    return {"T": out.T, "back_T": back.T, "back_scalar": back.scalar,
            "back_amp": back.amplitude.terms, "canon": canon, "canon_T": canon_out.T}


def flatten(scalar, amp: dict) -> dict:
    """Scalar (Laurent series in h times i^k) folded into the amplitude;
    the exponent is the last slot."""
    unit = 1j ** scalar.i_power
    out: dict = {}
    for k, c in scalar.laurent.items():
        for e, a in amp.items():
            e2 = e[:-1] + (e[-1] + k,)
            out[e2] = out.get(e2, 0.0) + a * c * unit
    return out


def verify(case: Case, out: dict) -> list[str]:
    problems = []

    def check_T(label, got, want):
        d = float(np.max(np.abs(np.asarray(got) - want)))
        if d > TOL_T:
            problems.append(f"{label}: T differs by {d:.3g}")

    check_T("W jet", out["T"], transform_T(case.jet.T, case.word))
    check_T("W^-1 W jet", out["back_T"], case.jet.T)
    scalar = out["back_scalar"]
    if scalar.exponent != 0:
        problems.append(f"W^-1 W jet: phase exponent {scalar.exponent} is not 0")
    back = flatten(scalar, out["back_amp"])
    lam = back.get((0, 0, 0), 0.0)
    centre = min((1, 1j, -1, -1j), key=lambda c: abs(lam - c))
    scale = max(1.0, max(abs(c) for c in case.amp_terms.values()))
    resid = max(abs(back.get(e, 0.0) - centre * case.amp_terms.get(e, 0.0))
                for e in set(back) | set(case.amp_terms))
    if resid > TOL_AMP * scale:
        problems.append(f"W^-1 W jet: amplitude differs from the input by {resid:.3g} "
                        f"modulo the centre")
    d = float(np.max(np.abs(word_product(out["canon"]) - case.matrix)))
    if d > TOL_M:
        problems.append(f"factor_sp word multiplies back with error {d:.3g}")
    check_T("canonical word jet", out["canon_T"], transform_T(case.jet.T, out["canon"]))
    return problems
