"""Per-layer tracing of ``msfourier.recover`` from outside the package.

``Tracer.patched`` swaps the module-level names that ``recovery`` and
``sampler`` look up at call time for wrappers that record a span (name,
start, end, parent span, recovery id, work count) or, for counters, only a
count. Spans stay in memory until ``write_spans``. A layer whose target
name no longer exists is reported absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import json
import time

# (module, attribute, span name, work count from the positional arguments)
SPANS = [
    ("recovery", "gather_unwrapped", "sampler.gather", lambda freqs, coeffs, plan, noise: plan.p),
    ("sampler", "_synthesize", "sampler.synth", lambda freqs, coeffs, plan: len(freqs) * plan.p),
    ("sampler", "noise_vector", "sampler.noise", lambda noise, stream, p: p),
    ("recovery", "dft_forward", "dft.fft", lambda v: len(v)),
    ("recovery", "top_bins", "dft.rank", lambda F, count: count),
    ("recovery", "rewrap_freq", "unwrap.rewrap", None),
    ("recovery", "make_schedule", "estimator.schedule", None),
]
# Calls counted without a span: one coefficient estimate per accepted candidate.
COUNTERS = [("recovery", "estimate_coefficient", "recovery.accepted")]

ROOT = "recovery"

# Per-layer metric -> (span or counter name, what to take, unit). "self" is
# the span's duration minus its child spans, "calls" the number of calls and
# "work" the sum of the work counts.
METRICS = {
    "sampler.synth_s": ("sampler.synth", "self", "s"),
    "sampler.synth_calls": ("sampler.synth", "calls", "count"),
    "sampler.synth_terms": ("sampler.synth", "work", "count"),
    "sampler.gather_self_s": ("sampler.gather", "self", "s"),
    "sampler.vectors": ("sampler.gather", "calls", "count"),
    "sampler.noise_s": ("sampler.noise", "self", "s"),
    "sampler.noise_draws": ("sampler.noise", "work", "count"),
    "dft.fft_s": ("dft.fft", "self", "s"),
    "dft.fft_points": ("dft.fft", "work", "count"),
    "dft.rank_s": ("dft.rank", "self", "s"),
    "unwrap.rewrap_s": ("unwrap.rewrap", "self", "s"),
    "unwrap.rewrap_calls": ("unwrap.rewrap", "calls", "count"),
    "estimator.schedule_s": ("estimator.schedule", "self", "s"),
    "recovery.self_s": (ROOT, "self", "s"),
    "recovery.candidates_ranked": ("dft.rank", "work", "count"),
    "recovery.candidates_accepted": ("recovery.accepted", "calls", "count"),
}


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [trace_id, name, start, end, parent, work]
        self.counts: dict[tuple[int, str], int] = {}
        self.absent: set[str] = set()
        self.trace_id = -1
        self._stack: list[int] = []
        for module, attr, name, *_ in SPANS + COUNTERS:
            if not hasattr(modules.get(module), attr):
                self.absent.add(name)

    def _span(self, name, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            amount = work(*args, **kwargs) if work else None
            rec = [self.trace_id, name, 0.0, 0.0, stack[-1] if stack else -1, amount]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            key = (self.trace_id, name)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper; restore the original names on exit."""
        saved = []
        try:
            for module, attr, name, *rest in SPANS + COUNTERS:
                if name in self.absent:
                    continue
                mod = self.modules[module]
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._span(name, fn, rest[0]) if rest else self._counter(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def run(self, trace_id: int, fn, *args):
        """Call ``fn(*args)`` under the root span; return (result, seconds)."""
        self.trace_id = trace_id
        root = len(self.spans)
        result = self._span(ROOT, fn, None)(*args)
        return result, self.spans[root][3] - self.spans[root][2]

    def summary(self, trace_id: int) -> dict:
        """{name: {"self": s, "calls": n, "work": total or None}} for one recovery."""
        index = [i for i, r in enumerate(self.spans) if r[0] == trace_id]
        child = {i: 0.0 for i in index}
        for i in index:
            parent = self.spans[i][4]
            if parent >= 0:
                child[parent] += self.spans[i][3] - self.spans[i][2]
        out: dict = {}
        for i in index:
            _, name, start, end, _, work = self.spans[i]
            agg = out.setdefault(name, {"self": 0.0, "calls": 0, "work": 0})
            agg["self"] += end - start - child[i]
            agg["calls"] += 1
            agg["work"] = None if work is None or agg["work"] is None else agg["work"] + work
        for (tid, name), n in self.counts.items():
            if tid == trace_id:
                out[name] = {"self": None, "calls": n, "work": None}
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (tid, name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "recovery": tid, "name": name, "parent": parent,
                    "start": start - t0, "end": end - t0, "work": work,
                }) + "\n")


def layer_metrics(summaries: list[dict], absent: set[str]) -> dict:
    """Mean per recovery of every metric in METRICS whose layer is present."""
    out = {}
    for metric, (name, field, unit) in METRICS.items():
        if name in absent:
            continue
        values = [s.get(name, {field: 0})[field] for s in summaries]
        out[metric] = (sum(values) / len(values), unit)
    return out
