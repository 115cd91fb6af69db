"""Span recorder and per-layer report for the benchmark's traced run.

The traced run times the calls into each layer's public functions from
the benchmark's own files: :func:`instrument` replaces the module
attributes the program's callers look up at call time (for example
``repro.exec.sweep.plan_treatment``) with wrappers that record one
:class:`Span` per call, and puts the originals back when the pass ends.
Nothing under ``src/`` changes.

A span's *self time* is its duration minus the durations of its direct
children (calls are single-threaded, so children never overlap).  The
per-layer report sums self time per layer; together with
``exec.unattributed_s`` (traced wall minus every top-level span) the
layer self times add up to the traced wall exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Layers time is attributed to: the ``repro`` subpackages on a
#: workload's path.  A span's layer is the first dotted part of its name.
LAYERS = ("exec", "experiments", "core", "workloads", "sim", "rng")

#: Every per-layer metric the report produces, with its unit, in
#: report order (``BENCHMARK.json`` lists the same names).
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("exec.self_s", "s"),
    ("exec.chunk_s", "s"),
    ("exec.chunk.self_s", "s"),
    ("exec.manifest_s", "s"),
    ("exec.cache.get_s", "s"),
    ("exec.cache.put_s", "s"),
    ("exec.unattributed_s", "s"),
    ("experiments.self_s", "s"),
    ("experiments.build_s", "s"),
    ("core.self_s", "s"),
    ("core.analysis_s", "s"),
    ("core.analysis.calls", "count"),
    ("core.plan_s", "s"),
    ("core.plan.calls", "count"),
    ("core.analyses_per_system", "count/system"),
    ("workloads.self_s", "s"),
    ("workloads.generate_s", "s"),
    ("workloads.generate.accept_ratio", "share"),
    ("workloads.draws_s", "s"),
    ("workloads.draws.streams", "count"),
    ("sim.self_s", "s"),
    ("sim.classify_s", "s"),
    ("sim.batched_share", "share"),
    ("sim.step_s", "s"),
    ("sim.step.jobs", "count"),
    ("sim.step.jobs_per_s", "1/s"),
    ("sim.exact_s", "s"),
    ("sim.exact.events", "count"),
    ("sim.exact.events_per_s", "1/s"),
    ("rng.self_s", "s"),
    ("rng.fingerprint_s", "s"),
    ("rng.fingerprint.calls", "count"),
    ("bench.systems", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead", "share"),
)

def seconds(ns: int) -> float:
    """Host-clock nanoseconds as seconds, for reporting."""
    return ns / 1e9  # noqa: RT001 - host-clock seconds for reporting, not simulated time


#: Span attributes taken from a call's (args, kwargs, result).
Attrs = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    """One call into a layer: name, host-clock bounds, and the index of
    the span that was open when it started (-1 for a top-level span)."""

    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_list(self) -> list:
        return [self.name, self.start_ns, self.end_ns, self.parent, self.attrs]


class SpanRecorder:
    """Keeps spans in memory; :meth:`wrap` makes a recording wrapper."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, attrs: Attrs | None = None) -> Callable:
        """*fn* wrapped so every call records a span named *name*."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, self.clock(), parent=self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end_ns = self.clock()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced


#: (module, attribute, span name, attrs): the wrap points, at the names
#: their callers bind.
ENTRY_POINTS: tuple[tuple[str, str, str, Attrs | None], ...] = (
    ("repro.exec.sweep", "build_chunk", "exec.chunk",
     lambda a, k, r: {"systems": len(r.points)}),
    ("repro.exec.sweep", "build_manifest", "exec.manifest", None),
    ("repro.exec.sweep", "run_simulation", "exec.run_simulation", None),
    ("repro.exec.sweep", "generate_population", "workloads.generate",
     lambda a, k, r: {"kept": len(r), "filtered": bool(k.get("feasible_only"))}),
    ("repro.workloads.population", "is_feasible", "core.analysis", None),
    ("repro.exec.sweep", "is_feasible", "core.analysis", None),
    ("repro.exec.sweep", "plan_treatment", "core.plan", None),
    ("repro.exec.sweep", "classify", "sim.classify", None),
    ("repro.exec.sweep", "simulate_batch", "sim.step",
     lambda a, k, r: {"systems": len(r), "jobs": sum(x.released for x in r)}),
    ("repro.sim.batch", "job_seeds", "workloads.draws", lambda a, k, r: {"streams": len(r)}),
    ("repro.sim.batch", "uniform_extras", "workloads.draws", None),
    ("repro.exec.sim", "simulate", "sim.exact",
     lambda a, k, r: {"events": r.events_processed}),
    ("repro.exec.sweep", "stable_hash", "rng.fingerprint", None),
)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install recording wrappers at :data:`ENTRY_POINTS` for the
    duration of the block; the original functions are restored on exit."""
    saved = []
    try:
        for module_name, attr, name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, attrs))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    children = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.dur_ns
    return [span.dur_ns - c for span, c in zip(spans, children)]


def layer_report(spans: list[Span], wall_ns: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass of *wall_ns* host time
    (every :data:`PER_LAYER` name except ``bench.trace_overhead``, which
    needs an untraced pass to compare against)."""
    own = self_times(spans)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = dict.fromkeys(LAYERS, 0)
    top_ns = 0
    candidates = 0
    for span, span_self in zip(spans, own):
        total[span.name] += span.dur_ns
        self_ns[span.name] += span_self
        calls[span.name] += 1
        layer_self[span.layer] += span_self
        if span.parent < 0:
            top_ns += span.dur_ns
        elif span.name == "core.analysis" and spans[span.parent].name == "workloads.generate":
            candidates += 1  # one feasibility-filter call per candidate drawn
        if span.name == "workloads.generate" and not span.attrs["filtered"]:
            candidates += span.attrs["kept"]
        for key, value in span.attrs.items():
            if key != "filtered":
                attr[f"{span.name}.{key}"] += value

    systems = attr["exec.chunk.systems"]
    step_s = seconds(total["sim.step"])
    exact_s = seconds(total["sim.exact"])
    out: dict[str, float] = {f"{layer}.self_s": seconds(ns) for layer, ns in layer_self.items()}
    out.update({
        "exec.chunk_s": seconds(total["exec.chunk"]),
        "exec.chunk.self_s": seconds(self_ns["exec.chunk"]),
        "exec.manifest_s": seconds(total["exec.manifest"]),
        "exec.cache.get_s": seconds(total["exec.cache.get"]),
        "exec.cache.put_s": seconds(total["exec.cache.put"]),
        "exec.unattributed_s": seconds(wall_ns - top_ns),
        "experiments.build_s": seconds(total["experiments.build"]),
        "core.analysis_s": seconds(total["core.analysis"]),
        "core.analysis.calls": calls["core.analysis"],
        "core.plan_s": seconds(total["core.plan"]),
        "core.plan.calls": calls["core.plan"],
        "core.analyses_per_system": (
            (calls["core.analysis"] + calls["core.plan"]) / systems if systems else 0.0
        ),
        "workloads.generate_s": seconds(self_ns["workloads.generate"]),
        "workloads.generate.accept_ratio": (
            attr["workloads.generate.kept"] / candidates if candidates else 0.0
        ),
        "workloads.draws_s": seconds(total["workloads.draws"]),
        "workloads.draws.streams": attr["workloads.draws.streams"],
        "sim.classify_s": seconds(total["sim.classify"]),
        "sim.batched_share": attr["sim.step.systems"] / systems if systems else 0.0,
        "sim.step_s": seconds(self_ns["sim.step"]),
        "sim.step.jobs": attr["sim.step.jobs"],
        "sim.step.jobs_per_s": attr["sim.step.jobs"] / step_s if step_s else 0.0,
        "sim.exact_s": exact_s,
        "sim.exact.events": attr["sim.exact.events"],
        "sim.exact.events_per_s": attr["sim.exact.events"] / exact_s if exact_s else 0.0,
        "rng.fingerprint_s": seconds(total["rng.fingerprint"]),
        "rng.fingerprint.calls": calls["rng.fingerprint"],
        "bench.systems": systems,
        "bench.traced_wall_s": seconds(wall_ns),
    })
    return out
