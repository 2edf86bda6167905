"""Benchmark of weyljet: seeded mathematical checks, timed per check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run goes through the workload's
fixed list of checks in passes, one after another, each in a fresh
interpreter (``passrun.py``), until the next pass would end after
``--seconds``; at least ``MIN_PASSES`` passes run.  Each pass's times are
scaled by the speed of the host during that pass, measured with a fixed
piece of reference work run between checks, and a check's time is the
median of its scaled times over the passes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Per-pass data, and with ``--trace 1`` the spans of the first pass, are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from common import REFERENCE_S
from passrun import WORKLOADS
from tracer import METRICS

MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def run_pass(root: Path, workload: str, seed: int, trace: int, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("passrun.py")),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_scale(run_pass: dict) -> float:
    """Factor that scales a pass's times to a host on which the reference
    work takes ``REFERENCE_S``: the host's speed drifts by 10-40 % over
    minutes, and the program and the reference slow down together."""
    return REFERENCE_S / statistics.fmean(run_pass["refs"])


def check_times(passes: list[dict]) -> list[float]:
    """Time of each check that ran: the median over the passes of its
    scaled program time."""
    scales = [host_scale(p) for p in passes]
    times = []
    for per_pass in zip(*(p["times"] for p in passes)):
        done = [sum(calls) * k for calls, k in zip(per_pass, scales) if calls is not None]
        if done:
            times.append(statistics.median(done))
    return times


def end_to_end(passes: list[dict]) -> dict:
    times = check_times(passes)
    if not times:
        raise RuntimeError("every check failed in every pass")
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    setup = statistics.median(p["setup_s"] * host_scale(p) for p in passes)
    return {
        "checks_per_s": {"value": len(times) / sum(times), "unit": "checks/s"},
        "check_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        "check_p90_ms": {"value": 1e3 * deciles[8], "unit": "ms"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    """Counts and ratios must agree between passes; self times are the
    median over the passes of the scaled self time."""
    problems = []
    out = {}
    for name, unit in METRICS.items():
        values = [p["layers"][name] for p in passes]
        if unit == "s":
            value = statistics.median(v * host_scale(p) for v, p in zip(values, passes))
        else:
            value = values[0]
            if len(set(values)) != 1:
                problems.append(f"{name} differs between passes: {values}")
        out[name] = {"value": value, "unit": unit}
    return out, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "weyljet" / "__init__.py").is_file():
        print("run.py: no src/weyljet here; run from the root of a weyljet checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {WORKLOADS}",
              file=sys.stderr)
        return 2
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    passes = []
    start = perf_counter()
    longest = 0.0
    while len(passes) < MIN_PASSES or perf_counter() - start + longest <= args.seconds:
        began = perf_counter()
        trace_out = out_dir / f"{stem}-spans.json" if args.trace and not passes else None
        passes.append(run_pass(root, args.workload, args.seed, args.trace, trace_out))
        longest = max(longest, perf_counter() - began)

    problems = [p for ps in passes for p in ps["problems"]]
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["times"].count(None) for p in passes)
    if args.trace:
        metrics, mismatch = per_layer(passes)
        problems += mismatch
    else:
        metrics = end_to_end(passes)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "passes": passes, "result": result}, fh)
    for p in problems[:20]:
        print(f"problem: {p}")
    for p in passes:
        for e in p["errors"][:5]:
            print(f"failed: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
