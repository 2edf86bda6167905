"""The benchmark's checkers accept the program's output on a short list and
reject a planted error, so that no check is vacuous.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import k_conjugate  # noqa: E402
import maslov_cech  # noqa: E402
import star_identities  # noqa: E402
import weil_words  # noqa: E402
from common import CheckTimer  # noqa: E402

SEED = 7
SHORT = 2  # checks per workload


def short_list(workload):
    return [(case, workload.run(case, CheckTimer()))
            for case in workload.build(SEED)[:SHORT]]


def nudge(terms: dict, delta: complex = 1e-6) -> dict:
    """A copy with its largest coefficient moved by ``delta``."""
    out = dict(terms)
    key = max(out, key=lambda e: abs(out[e]))
    out[key] += delta
    return out


@pytest.fixture(scope="module", params=[star_identities, k_conjugate, weil_words,
                                        maslov_cech], ids=lambda w: w.__name__)
def checked(request):
    return request.param, short_list(request.param)


def test_checker_accepts_program_output(checked):
    workload, results = checked
    for case, out in results:
        assert workload.verify(case, out) == []


def assert_rejects(workload, case, out, *expected):
    """The checker reports a problem naming each expected check."""
    problems = workload.verify(case, out)
    for label in expected:
        assert any(label in p for p in problems), (label, problems)


@pytest.mark.parametrize("key, expected", [
    ("fg", ["fg vs closed form"]),
    ("gk", ["gk vs closed form"]),
    ("left", ["associativity", "left vs closed form"]),
    ("right", ["associativity", "right vs closed form"]),
])
def test_star_rejects_moved_coefficient(key, expected):
    for case, out in short_list(star_identities):
        assert_rejects(star_identities, case, {**out, key: nudge(out[key])}, *expected)


@pytest.mark.parametrize("key, expected", [
    ("fg", "f*g vs closed form"),
    ("left", "k(f*g) vs k(f)*k(g)"),
    ("right", "k(f*g) vs k(f)*k(g)"),
    ("linear", "linear conjugation vs closed form"),
])
def test_k_conjugate_rejects_moved_coefficient(key, expected):
    for case, out in short_list(k_conjugate):
        assert_rejects(k_conjugate, case, {**out, key: nudge(out[key])}, expected)


def test_weil_rejects_perturbed_T_amplitude_and_word():
    for case, out in short_list(weil_words):
        for key, expected in (("T", "W jet: T"), ("back_T", "W^-1 W jet: T"),
                              ("canon_T", "canonical word jet: T")):
            T = out[key].copy()
            T[0, 1] += 1e-6
            T[1, 0] += 1e-6
            assert_rejects(weil_words, case, {**out, key: T}, expected)
        assert_rejects(weil_words, case, {**out, "back_amp": nudge(out["back_amp"])},
                       "amplitude differs")
        canon = list(out["canon"])
        canon[0] = weil_words.Shear(((0.0, 0.0), (0.0, 1e-6)))
        assert_rejects(weil_words, case, {**out, "canon": canon}, "multiplies back")


def test_maslov_rejects_wrong_values_frames_and_report():
    for case, out in short_list(maslov_cech):
        values = out["values"]
        pair = next(p for p, v in values.items() if v)
        off_by_one = {**values, pair: values[pair] + 1}
        assert_rejects(maslov_cech, case, {**out, "values": off_by_one},
                       "eigenvalue sign count", "not antisymmetric")
        # a flipped signature in both orientations stays antisymmetric; the
        # oracle and the triple sums still object
        flipped = {**values, pair: -values[pair], pair[::-1]: -values[pair[::-1]]}
        assert_rejects(maslov_cech, case, {**out, "values": flipped},
                       "eigenvalue sign count", "nonzero sum")
        frames = dict(out["frames"])
        I = next(I for I, f in frames.items() if f is not None and f.A)
        frame = frames[I]
        A = [list(r) for r in frame.A]
        A[0][0] += 1
        frames[I] = type(frame)(frame.n, frame.I, tuple(map(tuple, A)), frame.B, frame.C)
        assert_rejects(maslov_cech, case, {**out, "frames": frames}, "frame differs")
        report = copy.deepcopy(out["report"])
        report["triples_checked"] += 1
        assert_rejects(maslov_cech, case, {**out, "report": report}, "report:")
