"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records a span (layer, parent span, start, end) in memory;
spans are written out once the pass is over.  A function is wrapped in the
namespace of every module that calls it, because those modules bind the
name at import time.  ``cycleiso.survey`` as a package attribute is the
``survey`` function, so the module is taken from ``sys.modules``.

Generators (``enumerate_connected``) record one span per ``next`` call; the
layer's call count is the number of generators created.
"""

from __future__ import annotations

import functools
import math
import sys
from time import perf_counter

import cycleiso  # loads every submodule
from workloads import tail_level

LAYERS = (
    "cli",
    "survey.run",
    "survey.enumerate",
    "survey.canonical",
    "survey.check",
    "isolation.exact",
    "isolation.verify",
    "isolation.gluing",
    "cycles.find",
    "family.recognize",
    "constructive.construct",
    "graphs.parse",
    "graphs.encode",
)

# (module, attribute, layer); generator functions are marked with a trailing "*"
_TARGETS = (
    ("cycleiso.cli", "main", "cli"),
    ("cycleiso.cli", "survey", "survey.run"),
    ("cycleiso.cli", "enumerate_connected", "survey.enumerate*"),
    ("cycleiso.cli", "parse_graph6", "graphs.parse"),
    ("cycleiso.cli", "encode_graph6", "graphs.encode"),
    ("cycleiso.survey", "canonical_code", "survey.canonical"),
    ("cycleiso.survey", "check_graph", "survey.check"),
    ("cycleiso.survey", "iota_exact", "isolation.exact"),
    ("cycleiso.survey", "parse_graph6", "graphs.parse"),
    ("cycleiso.survey", "encode_graph6", "graphs.encode"),
    ("cycleiso.isolation", "find_cycle", "cycles.find"),
    ("cycleiso.isolation", "verify", "isolation.verify"),
    ("cycleiso.family", "recognize", "family.recognize"),
    ("cycleiso.constructive", "construct", "constructive.construct"),
    ("cycleiso.constructive", "find_cycle", "cycles.find"),
    ("cycleiso.constructive", "recognize", "family.recognize"),
    ("cycleiso.constructive", "check_gluing_hypothesis", "isolation.gluing"),
    ("cycleiso.constructive", "iota_exact", "isolation.exact"),
    ("cycleiso.graphs", "parse_graph6", "graphs.parse"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, parent index or -1, start, end]
        self.child: list[float] = []  # time covered by each span's children
        self.stack: list[int] = []
        self.calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.classes = 0
        self.nodes = 0
        self.budget_exhausted = 0
        self.steps = 0
        self.fallbacks = 0
        self.labels: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _enter(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, self.stack[-1] if self.stack else -1, perf_counter(), 0.0])
        self.child.append(0.0)
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[3] = end = perf_counter()
        self.stack.pop()
        if span[1] >= 0:
            self.child[span[1]] += end - span[2]

    def _observe(self, layer: str, out) -> None:
        if layer == "isolation.exact":
            self.nodes += out.explored
        elif layer == "constructive.construct":
            labels = out[1].labels
            self.steps += len(labels)
            self.fallbacks += labels.count("fallback")
            self.labels.update(labels)

    def wrap(self, layer: str, fn):
        tracer = self
        budget_error = cycleiso.BudgetExceededError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            idx = tracer._enter(layer)
            try:
                out = fn(*args, **kwargs)
            except budget_error as exc:
                if layer == "isolation.exact":
                    tracer.nodes += exc.explored
                    tracer.budget_exhausted += 1
                raise
            finally:
                tracer._exit(idx)
            tracer._observe(layer, out)
            return out

        return traced

    def wrap_generator(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[layer] += 1
            inner = fn(*args, **kwargs)

            def pump():
                while True:
                    idx = tracer._enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx)
                    tracer.classes += 1
                    yield item

            return pump()

        return traced

    def install(self) -> None:
        for module, attr, layer in _TARGETS:
            mod = sys.modules[module]
            fn = getattr(mod, attr)
            if layer.endswith("*"):
                setattr(mod, attr, self.wrap_generator(layer[:-1], fn))
            else:
                setattr(mod, attr, self.wrap(layer, fn))

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times; counts are deterministic for one input."""
        total = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        checks: list[float] = []
        candidates = 0
        spans = self.spans
        for idx, (layer, parent, start, end) in enumerate(spans):
            dur = end - start
            total[layer] += dur
            own[layer] += dur - self.child[idx]
            if layer == "survey.check":
                checks.append(dur)
            elif layer == "survey.canonical" and parent >= 0 and spans[parent][0] == "survey.enumerate":
                candidates += 1
        calls = self.calls
        out = {
            "survey.enumerate.s": total["survey.enumerate"],
            "survey.enumerate.candidates": candidates,
            "survey.enumerate.yield": self.classes / candidates if candidates else 0.0,
            "survey.canonical.calls": calls["survey.canonical"],
            "survey.canonical.s": total["survey.canonical"],
            "isolation.exact.calls": calls["isolation.exact"],
            "isolation.exact.nodes": self.nodes,
            "isolation.exact.s": total["isolation.exact"],
            "isolation.exact.self_s": own["isolation.exact"],
            "isolation.exact.budget_exhausted": self.budget_exhausted,
            "cycles.find.calls": calls["cycles.find"],
            "cycles.find.s": total["cycles.find"],
            "constructive.construct.calls": calls["constructive.construct"],
            "constructive.construct.s": total["constructive.construct"],
            "constructive.construct.self_s": own["constructive.construct"],
            "constructive.construct.steps": self.steps,
            "constructive.construct.fallbacks": self.fallbacks,
            "constructive.construct.labels_fired": len(self.labels),
            "family.recognize.calls": calls["family.recognize"],
            "family.recognize.s": total["family.recognize"],
            "isolation.gluing.calls": calls["isolation.gluing"],
            "isolation.gluing.s": total["isolation.gluing"],
            "isolation.verify.calls": calls["isolation.verify"],
            "isolation.verify.s": total["isolation.verify"],
            "survey.check.calls": calls["survey.check"],
            "survey.check.self_s": own["survey.check"],
            "survey.run.self_s": own["survey.run"],
            "graphs.parse.calls": calls["graphs.parse"],
            "graphs.parse.s": total["graphs.parse"],
            "graphs.encode.calls": calls["graphs.encode"],
            "graphs.encode.s": total["graphs.encode"],
            "cli.self_s": own["cli"],
        }
        out.update(latency_percentiles(checks))
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tparent\tlayer\tstart\tend\n")
            for idx, (layer, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{layer}\t{start!r}\t{end!r}\n")


def latency_percentiles(durations: list[float]) -> dict[str, float]:
    """Median and the tail_level percentile of the durations, in ms."""
    n = len(durations)
    if n == 0:
        return {"survey.check.p50_ms": 0.0, "survey.check.tail_ms": 0.0}
    ordered = sorted(durations)

    def rank(q: float) -> float:  # nearest-rank percentile, in ms
        return ordered[math.ceil(n * q / 100) - 1] * 1e3

    return {"survey.check.p50_ms": rank(50.0), "survey.check.tail_ms": rank(tail_level(n))}
