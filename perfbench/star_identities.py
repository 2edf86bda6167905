"""Workload ``star_identities``: Moyal products of seeded many-term symbols
at n=2, cap=8, polynomial in h.

Each check takes three symbols f, g, k and makes the four products
f*g, g*k, (f*g)*k and f*(g*k).  It checks associativity, and compares every
product with the closed-form Moyal product of monomials below, chained
from the oracle's own products.  Symbols stay polynomial in h: with h^-1
the program's bidifferential order bound drops terms (see CHANGES.md).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from weyljet.weyl import WeylAlgebra, moyal_star

from common import LENGTH, compare, crand, seeded_rng, size_class

N, CAP = 2, 8
TOL = 2e-9  # relative; the program drops terms below its eps = 1e-9


@dataclass
class Case:
    algebra: WeylAlgebra
    symbols: tuple  # three TruncatedSeries handed to the program
    terms: tuple    # the same symbols as plain term maps, for the oracle


def random_terms(rng, n: int, weights, momentum=None) -> dict:
    """Distinct monomials u^a v^b h^p (exponent tuples in the algebra's
    order u1..un, v1..vn, h) with the given weighted degrees; the terms at
    odd positions of weight >= 3 carry one h.  The seed picks the jets and
    the coefficients.  ``momentum[j]`` fixes how many of term j's jets are
    momentum jets (by default about half, alternating up and down)."""
    terms: dict[tuple, complex] = {}
    for j, w in enumerate(weights):
        hp = 1 if w >= 3 and j % 2 else 0
        while True:
            e = [0] * (2 * n) + [hp]
            jets = w - 2 * hp
            nv = (jets + j % 2) // 2 if momentum is None else min(momentum[j], jets)
            for slot in range(jets):
                e[(n if slot < nv else 0) + rng.randrange(n)] += 1
            if tuple(e) not in terms:
                break
        terms[tuple(e)] = crand(rng)
    return terms


def falling(x: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= x - j
    return out


def _pair_coefficients(n: int, m1: tuple, m2: tuple):
    """Closed-form Moyal product of the monomials u^a v^b h^p and
    u^c v^d h^q: the sum over multi-indices alpha <= min(b, c),
    beta <= min(a, d) of

        (i/2)^k (-1)^|beta| (b)_alpha (c)_alpha (a)_beta (d)_beta
        / (alpha! beta!) * u^(a+c-alpha-beta) v^(b+d-alpha-beta) h^(p+q+k)

    with k = |alpha| + |beta| and (x)_j the falling factorial.  Yields
    (exponent, i-power k, exact rational factor)."""
    a, b, p = m1[:n], m1[n:2 * n], m1[2 * n]
    c, d, q = m2[:n], m2[n:2 * n], m2[2 * n]
    alphas = itertools.product(*(range(min(bj, cj) + 1) for bj, cj in zip(b, c)))
    for alpha in alphas:
        for beta in itertools.product(*(range(min(aj, dj) + 1) for aj, dj in zip(a, d))):
            k = sum(alpha) + sum(beta)
            r = Fraction((-1) ** sum(beta), 2 ** k)
            for j in range(n):
                r *= Fraction(falling(b[j], alpha[j]) * falling(c[j], alpha[j])
                              * falling(a[j], beta[j]) * falling(d[j], beta[j]),
                              factorial(alpha[j]) * factorial(beta[j]))
            u = tuple(a[j] + c[j] - alpha[j] - beta[j] for j in range(n))
            v = tuple(b[j] + d[j] - alpha[j] - beta[j] for j in range(n))
            yield u + v + (p + q + k,), k, r


_IPOW = (1, 1j, -1, -1j)


@functools.cache
def _pair_table(n: int, m1: tuple, m2: tuple) -> tuple:
    return tuple((e, _IPOW[k % 4] * float(r)) for e, k, r in _pair_coefficients(n, m1, m2))


def moyal_oracle(n: int, cap: int, f: dict, g: dict) -> dict:
    """Moyal product of two term maps (polynomial in h), truncated at the
    weighted degree ``cap`` (x-jets weigh 1, h weighs 2).  Every term of a
    monomial pair has the pair's total weight, so truncation is per pair."""
    def weight(e):
        return sum(e[:2 * n]) + 2 * e[2 * n]

    out: dict[tuple, complex] = {}
    for m1, c1 in f.items():
        w1 = weight(m1)
        for m2, c2 in g.items():
            if w1 + weight(m2) > cap:
                continue
            c = c1 * c2
            for e, r in _pair_table(n, m1, m2):
                out[e] = out.get(e, 0.0) + c * r
    return out


def build(seed: int) -> list[Case]:
    A = WeylAlgebra(N, CAP)
    rng = seeded_rng("star_identities", seed)
    cases = []
    for i in range(LENGTH):
        nterms = 3 + size_class(i, 5) // 2  # 3, 3, 4, 4, 5 terms per symbol
        weights = [1 + j % 4 for j in range(nterms)]
        terms = tuple(random_terms(rng, N, weights) for _ in range(3))
        cases.append(Case(A, tuple(A.ctx.from_terms(t) for t in terms), terms))
    return cases


def run(case: Case, call) -> dict:
    A = case.algebra
    f, g, k = case.symbols
    fg = call(moyal_star, A, f, g)
    gk = call(moyal_star, A, g, k)
    left = call(moyal_star, A, fg, k)
    right = call(moyal_star, A, f, gk)
    return {"fg": fg.terms, "gk": gk.terms, "left": left.terms, "right": right.terms}


def verify(case: Case, out: dict) -> list[str]:
    f, g, k = case.terms
    fg = moyal_oracle(N, CAP, f, g)
    gk = moyal_oracle(N, CAP, g, k)
    want = {"fg": fg, "gk": gk,
            "left": moyal_oracle(N, CAP, fg, k),
            "right": moyal_oracle(N, CAP, f, gk)}
    problems = compare("associativity (f*g)*k vs f*(g*k)", out["left"], out["right"], TOL)
    for name, terms in want.items():
        problems += compare(f"{name} vs closed form", out[name], terms, TOL)
    return problems
