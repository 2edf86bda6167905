"""Workload ``k_conjugate``: conjugation of seeded symbols by seeded
elements of K at n=1, cap=6.

A K element is a formal diffeomorphism u -> lam*u + c2*u^2 + ... plus a
multiplier exp(q(u)) with q(0) = 0.  Each check makes f*g, conjugates
f*g, f and g by a nonlinear element k, multiplies the conjugates, and
conjugates f by a linear element u -> lam*u without multiplier.  It checks
the automorphism identity k(f*g) = k(f)*k(g), the closed form
w(u, v) -> w(lam*u, v/lam) of the linear conjugation, and f*g against the
closed-form Moyal product of ``star_identities``.
"""

from __future__ import annotations

from dataclasses import dataclass

from weyljet.weyl import KGroupElement, WeylAlgebra, k_conjugate, moyal_star

from common import LENGTH, compare, seeded_rng, size_class
from star_identities import moyal_oracle, random_terms

N, CAP = 1, 6
TOL_AUTO = 1e-8    # relative; both sides run through inversion at extended caps
TOL_CLOSED = 2e-9  # relative; the program drops terms below its eps = 1e-9


@dataclass
class Case:
    algebra: WeylAlgebra
    k: KGroupElement
    k_linear: KGroupElement
    lam_linear: float
    f: object
    g: object
    f_terms: dict
    g_terms: dict


def _polynomial(A, coeffs: dict):
    """sum of c * u1^d over ``coeffs`` {d: c}."""
    return A.ctx.from_terms({(d, 0, 0): c for d, c in coeffs.items()})


def _away_from_zero(rng, top: float) -> float:
    return rng.uniform(0.1, top) * rng.choice((1, -1))


def build(seed: int) -> list[Case]:
    A = WeylAlgebra(N, CAP)
    rng = seeded_rng("k_conjugate", seed)
    cases = []
    for i in range(LENGTH):
        size = size_class(i, 5)
        degree = 2 + size // 4                 # K elements of degree 2, 2, 2, 2, 3
        lam = rng.uniform(0.6, 1.6) * rng.choice((1, -1))
        # coefficients stay at least 0.1 in size: a coefficient near 1e-3
        # makes the program's absolute eps drop intermediate terms and the
        # identity fail by about 6e-8 (see CHANGES.md)
        image = {1: lam, **{d: _away_from_zero(rng, 0.4) for d in range(2, degree + 1)}}
        q = {d: _away_from_zero(rng, 0.3) for d in range(1, degree + 1)}
        k = KGroupElement(A, {"u1": _polynomial(A, image)}, _polynomial(A, q))
        lam_linear = rng.uniform(0.5, 2.0) * rng.choice((1, -1))
        k_linear = KGroupElement(A, {"u1": _polynomial(A, {1: lam_linear})})
        # f of differential order 1 in its first term only, and g
        # position-only, keep the reconstruction order of k(f*g) at 1; order 2
        # costs about 3x more.  The three smallest classes have f of order 0.
        nf = 2 + size // 2
        f = random_terms(rng, N, [1 + j % 3 for j in range(nf)],
                         [int(size >= 3)] + [0] * (nf - 1))
        g = random_terms(rng, N, [1 + (j + 1) % 3 for j in range(1 + size // 2)], [0] * 3)
        cases.append(Case(A, k, k_linear, lam_linear, A.ctx.from_terms(f),
                          A.ctx.from_terms(g), f, g))
    return cases


def run(case: Case, call) -> dict:
    A, k = case.algebra, case.k
    fg = call(moyal_star, A, case.f, case.g)
    left = call(k_conjugate, k, fg)
    kf = call(k_conjugate, k, case.f)
    kg = call(k_conjugate, k, case.g)
    right = call(moyal_star, A, kf, kg)
    linear = call(k_conjugate, case.k_linear, case.f)
    return {"fg": fg.terms, "left": left.terms, "right": right.terms,
            "linear": linear.terms}


def linear_closed_form(terms: dict, lam: float) -> dict:
    """Symbol of w conjugated by u -> lam*u: u^a v^b -> lam^(a-b) u^a v^b."""
    return {e: c * lam ** (e[0] - e[1]) for e, c in terms.items()}


def verify(case: Case, out: dict) -> list[str]:
    problems = compare("k(f*g) vs k(f)*k(g)", out["left"], out["right"], TOL_AUTO)
    problems += compare("linear conjugation vs closed form", out["linear"],
                        linear_closed_form(case.f_terms, case.lam_linear), TOL_CLOSED)
    problems += compare("f*g vs closed form", out["fg"],
                        moyal_oracle(N, CAP, case.f_terms, case.g_terms), TOL_CLOSED)
    return problems
