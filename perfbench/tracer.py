"""Spans and counts around weyljet's public functions, for the traced run.

``install`` replaces every binding of each traced function: the attribute
of its class, or the name in every loaded module that holds it, so calls
made inside the program and calls made by the benchmark both pass through
the wrapper.  A span records (name, start, end, parent); a layer's self
time is its span time minus the time covered by its child spans.
``TruncatedSeries.__init__`` is only counted, not spanned: it runs far too
often for a span each, and its time stays in its caller's self time.
Nothing is recorded while ``enabled`` is false.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

# metric prefix, module, attribute path
SPANS = [
    ("series.mul", "weyljet.series", "TruncatedSeries.__mul__"),
    ("series.diff", "weyljet.series", "TruncatedSeries.diff"),
    ("series.compose", "weyljet.series", "compose"),
    ("series.invert_map", "weyljet.series", "invert_map"),
    ("weyl.moyal_star", "weyljet.weyl", "moyal_star"),
    ("weyl.normal_op", "weyljet.weyl", "NormalOperator.apply"),
    ("weyl.k_act", "weyljet.weyl", "KGroupElement.act"),
    ("weyl.half_density", "weyljet.weyl", "KGroupElement.half_density_factor"),
    ("weyl.operator_from_action", "weyljet.weyl", "operator_from_action"),
    ("stationary.fiber", "weyljet.stationary", "fiber_stationary_phase"),
    ("stationary.gaussian_moment", "weyljet.stationary", "gaussian_moment"),
    ("weil.act_fourier", "weyljet.weil", "act_fourier"),
    ("weil.act_gl", "weyljet.weil", "act_gl"),
    ("weil.factor_sp", "weyljet.weil", "factor_sp"),
    ("maslov.chart_parameters", "weyljet.maslov", "chart_parameters"),
    ("maslov.signature", "weyljet.maslov", "signature"),
    ("maslov.linear_cocycle", "weyljet.maslov", "linear_cocycle"),
    ("maslov.verify_cech", "weyljet.maslov", "verify_cech_cocycle"),
]

# the per-layer metrics of BENCHMARK.json, in its order
METRICS = {
    "series.mul.calls": "count", "series.mul.self_s": "s",
    "series.diff.calls": "count", "series.diff.self_s": "s",
    "series.construct.calls": "count", "series.construct.terms_in": "count",
    "series.construct.kept_ratio": "ratio",
    "series.compose.calls": "count", "series.compose.self_s": "s",
    "series.invert_map.calls": "count", "series.invert_map.self_s": "s",
    "weyl.moyal_star.calls": "count", "weyl.moyal_star.self_s": "s",
    "weyl.moyal_star.terms_out": "count",
    "weyl.normal_op.calls": "count", "weyl.normal_op.self_s": "s",
    "weyl.k_act.calls": "count", "weyl.k_act.self_s": "s",
    "weyl.half_density.calls": "count", "weyl.operator_from_action.self_s": "s",
    "stationary.fiber.calls": "count", "stationary.fiber.self_s": "s",
    "stationary.gaussian_moment.calls": "count", "stationary.gaussian_moment.self_s": "s",
    "weil.act_fourier.calls": "count", "weil.act_fourier.self_s": "s",
    "weil.act_gl.self_s": "s", "weil.factor_sp.self_s": "s",
    "maslov.chart_parameters.calls": "count", "maslov.chart_parameters.self_s": "s",
    "maslov.frame_reuse_ratio": "ratio",
    "maslov.signature.calls": "count", "maslov.signature.self_s": "s",
    "maslov.linear_cocycle.self_s": "s", "maslov.verify_cech.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.origin = perf_counter()
        self.layers: list[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span index, time covered by children]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.frames_seen: set = set()

    def span(self, name: str, fn, before=None, after=None):
        layer = len(self.layers)
        self.layers.append(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            stack = self.stack
            idx = len(self.span_layer)
            self.span_layer.append(layer)
            self.span_parent.append(stack[-1][0] if stack else -1)
            entry = [idx, 0.0]
            stack.append(entry)
            start = perf_counter()
            self.span_start.append(start - self.origin)
            self.span_end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.span_end[idx] = end - self.origin
                dur = end - start
                self.calls[name] += 1
                self.self_s[name] += dur - entry[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    # --- counters at layer boundaries -------------------------------------

    def count_construct(self, init):
        counts = self.counts

        def __init__(obj, ctx, terms):
            init(obj, ctx, terms)
            if self.enabled:
                counts["series.construct.calls"] += 1
                counts["series.construct.terms_in"] += len(terms)
                counts["series.construct.terms_kept"] += len(obj.terms)

        return __init__

    def note_frame(self, args):
        basis, I = args[0], args[1]
        key = (tuple(tuple(Fraction(x) for x in row) for row in basis),
               frozenset(int(i) for i in I))
        self.frames_seen.add(key)

    def note_star(self, result):
        self.counts["weyl.moyal_star.terms_out"] += len(result.terms)

    # --- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, unit in METRICS.items():
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[layer]
            elif field == "self_s":
                out[name] = self.self_s[layer]
            else:
                out[name] = self.counts[name]
        terms_in = self.counts["series.construct.terms_in"]
        out["series.construct.calls"] = self.counts["series.construct.calls"]
        out["series.construct.kept_ratio"] = (
            self.counts["series.construct.terms_kept"] / terms_in if terms_in else 0.0)
        solves = self.calls["maslov.chart_parameters"]
        out["maslov.frame_reuse_ratio"] = len(self.frames_seen) / solves if solves else 0.0
        return out

    def dump(self, path):
        data = {
            "layers": self.layers,
            "spans": {"layer": list(self.span_layer), "parent": list(self.span_parent),
                      "start": list(self.span_start), "end": list(self.span_end)},
            "calls": dict(self.calls), "self_s": dict(self.self_s),
            "counts": dict(self.counts), "distinct_frames": len(self.frames_seen),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def _rebind(original, wrapped):
    """Point every loaded module's name for ``original`` at ``wrapped``."""
    for module in list(sys.modules.values()):
        names = getattr(module, "__dict__", None)
        if not names:
            continue
        for key, value in list(names.items()):
            if value is original:
                setattr(module, key, wrapped)


def install() -> Tracer:
    """Wrap the traced functions of an imported weyljet; returns the tracer,
    disabled until its ``enabled`` flag is set."""
    tracer = Tracer()
    hooks = {"maslov.chart_parameters": (tracer.note_frame, None),
             "weyl.moyal_star": (None, tracer.note_star)}
    for name, module_name, path in SPANS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        before, after = hooks.get(name, (None, None))
        wrapped = tracer.span(name, original, before, after)
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):  # __mul__ is also __rmul__
                if value is original:
                    setattr(owner, key, wrapped)
        else:
            _rebind(original, wrapped)
    series = sys.modules["weyljet.series"].TruncatedSeries
    series.__init__ = tracer.count_construct(series.__init__)
    return tracer
