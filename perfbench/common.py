"""Pieces shared by the four workloads: the timer that wraps program calls,
the size schedule of a check list, and term-map comparisons.

A workload module exposes ``LENGTH`` and three functions:

* ``build(seed)`` makes the check list (the only place the seed enters);
* ``run(case, call)`` makes the program calls of one check, each through
  ``call(fn, *args)`` so that only program time is measured, and returns
  the raw outputs;
* ``verify(case, outputs)`` compares the outputs with a computation made
  apart from the program, or with an identity the method must satisfy,
  and returns a list of problems (empty when the check passed).
"""

from __future__ import annotations

import random
from time import perf_counter

LENGTH = 100  # checks per list: the p90 then has ten checks beyond it
REFERENCE_S = 1.5e-3  # typical time of reference_time() on the machine of the README


class CheckTimer:
    """Callable that runs a program call and records its wall time in
    ``calls``; building inputs and checking results stay outside."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls: list[float] = []

    def __call__(self, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append(perf_counter() - start)
        return out


def reference_time() -> float:
    """Wall time of a fixed piece of pure-Python work shaped like the series
    kernel (tuple keys, dict accumulation, complex products), which uses
    nothing from the program.  Sampled between checks, it measures how fast
    the host is running at that moment."""
    start = perf_counter()
    terms: dict = {}
    for i in range(2000):
        key = (i % 5, i % 3, i % 7)
        terms[key] = terms.get(key, 0j) + complex(i, 1) * 0.5
    return perf_counter() - start


def seeded_rng(workload: str, seed: int) -> random.Random:
    """Deterministic generator for one workload and seed (string seeding
    hashes with SHA-512, so it does not depend on PYTHONHASHSEED)."""
    return random.Random(f"{workload}:{seed}")


def size_class(index: int, classes: int, length: int = LENGTH) -> int:
    """Size class of check ``index``: the list grows in ``classes`` equal
    blocks, so a percentile always falls on the same block whatever the
    seed."""
    return index * classes // length


def crand(rng: random.Random, scale: float = 1.0) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def max_diff(got: dict, want: dict) -> float:
    """Largest coefficient difference over the union of both term maps."""
    return max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in set(got) | set(want)),
               default=0.0)


def max_abs(terms: dict) -> float:
    return max((abs(c) for c in terms.values()), default=0.0)


def compare(label: str, got: dict, want: dict, rel: float) -> list[str]:
    """Problems when ``got`` differs from ``want`` by more than ``rel``
    times the larger of 1 and the largest coefficient of ``want``."""
    tol = rel * max(1.0, max_abs(want))
    d = max_diff(got, want)
    return [] if d <= tol else [f"{label}: differs by {d:.3g} (tolerance {tol:.3g})"]
