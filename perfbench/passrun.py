"""One pass over a workload's check list, in a fresh interpreter.

    python3 perfbench/passrun.py --workload NAME --seed N [--trace 1] [--trace-out PATH]

Run from the root of a checkout; ``run.py`` starts one of these per pass,
so no pass can reuse anything the program computed in an earlier one.
Prints one JSON object: for each check the times of its program calls
(null for a check whose program call raised), the time of the reference
work run just before each check, the set-up time (import of weyljet and
building the list), the peak resident set, the problems the checkers
found and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

WORKLOADS = ("star_identities", "k_conjugate", "weil_words", "maslov_cech")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    start = perf_counter()
    from common import CheckTimer, reference_time

    workload = importlib.import_module(args.workload)  # imports weyljet
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()
    cases = workload.build(args.seed)
    setup_s = perf_counter() - start

    times, problems, errors, refs = [], [], [], []
    for index, case in enumerate(cases):
        refs.append(reference_time())
        call = CheckTimer()
        if tracer:
            tracer.enabled = True
        try:
            out = workload.run(case, call)
        except Exception:  # a failed operation: counted, and the pass goes on
            times.append(None)
            errors.append(f"check {index}: {traceback.format_exc(limit=3)}")
            continue
        finally:
            if tracer:
                tracer.enabled = False
        times.append(call.calls)
        problems += [f"check {index}: {p}" for p in workload.verify(case, out)]

    result = {
        "times": times,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
        "errors": errors,
        "refs": refs,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        if args.trace_out:
            tracer.dump(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
