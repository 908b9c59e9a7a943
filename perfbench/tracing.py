"""Span tracing for the benchmark's traced runs, recorded from outside the program.

A traced run wraps the public entry points of each layer at run time —
class attributes and module-level names, restored afterwards — and routes
the kernel layer through the registry's existing instrumentation hook with
:class:`repro.telemetry.spans.TimedKernelBackend`.  No program code changes:
an untraced run never sees a wrapper.

Every span is kept in memory as ``(name, start, end, trace_id)``.  Parents
are recovered afterwards by interval nesting (spans of one thread nest
strictly), which also covers kernel spans: ``TimedKernelBackend`` reports a
kernel only when it returns, so its start is the report time minus the
measured duration.  A span's self time is its duration minus the durations
of its direct children.

Spans of one query share an id (``router.serve`` opens a new one), as do the
spans of one simulated day (``simulation.step`` opens a new one).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.community.lifecycle import PoissonLifecycle
from repro.core.kernels import (
    VALID_KERNELS,
    get_kernel_instrumentation,
    numpy_backend,
    set_kernel_instrumentation,
)
from repro.core.rankers import RandomizedPromotionRanker
from repro.metrics.qpc import QPCAccumulator
from repro.serving import engine as engine_module
from repro.serving.cache import ResultPageCache
from repro.serving.engine import ServingEngine
from repro.serving.router import ShardedRouter
from repro.serving.state import PopularityState
from repro.serving.sweep import ServingSweep
from repro.simulation.batch import BatchSimulator
from repro.telemetry.spans import TimedKernelBackend

Span = Tuple[str, float, float, int]

#: Root span around each timed region; its self time is the benchmark's own
#: loop (``bench.driver.self_s``).
DRIVER_SPAN = "bench.driver"


class Tracer:
    """In-memory span recorder; also the span sink of ``TimedKernelBackend``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.trace_id = 0
        self._kernel_labels: Dict[str, str] = {}

    def observe(self, name: str, seconds: float) -> None:
        """``SpanTable.observe``: one kernel call named ``<kernel>@<backend>``."""
        end = time.perf_counter()
        label = self._kernel_labels.get(name)
        if label is None:
            label = self._kernel_labels[name] = "kernels." + name.split("@", 1)[0]
        self.spans.append((label, end - seconds, end, self.trace_id))

    def wrap(self, name: str, fn, new_trace: bool = False):
        """``fn`` recording one span per call; ``new_trace`` opens a new trace id."""
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_trace:
                tracer.trace_id += 1
            trace_id = tracer.trace_id
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), trace_id))

        return traced


#: ``(owner, attribute, span name, opens a trace)`` for every traced entry point.
TARGETS = (
    (BatchSimulator, "run", "simulation.run", False),
    (BatchSimulator, "step", "simulation.step", True),
    (RandomizedPromotionRanker, "rank_batch", "rankers.rank_batch", False),
    (QPCAccumulator, "update", "metrics.qpc_update", False),
    (PoissonLifecycle, "step_batch", "community.lifecycle_step", False),
    (ShardedRouter, "serve", "router.serve", True),
    (ShardedRouter, "submit_feedback", "router.submit_feedback", False),
    (ShardedRouter, "flush_feedback", "router.flush_feedback", False),
    (ResultPageCache, "lookup", "cache.lookup", False),
    (ResultPageCache, "store", "cache.store", False),
    (ServingEngine, "serve", "engine.serve", False),
    (ServingEngine, "top_k", "engine.top_k", False),
    (PopularityState, "commit_visits_at", "state.commit_visits_at", False),
    (ServingSweep, "run", "sweep.run", False),
    # merge_repair is imported by name into both modules that call it.
    (engine_module, "merge_repair", "kernels.merge_repair", False),
    (numpy_backend, "merge_repair", "kernels.merge_repair", False),
)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced entry point for the duration of the block."""
    originals = []
    previous_hook = get_kernel_instrumentation()
    proxies: Dict[int, TimedKernelBackend] = {}

    def hook(backend):
        proxy = proxies.get(id(backend))
        if proxy is None:
            proxy = proxies[id(backend)] = TimedKernelBackend(backend, tracer)
        return proxy

    try:
        for owner, attribute, name, new_trace in TARGETS:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, new_trace))
        set_kernel_instrumentation(hook)
        yield tracer
    finally:
        set_kernel_instrumentation(previous_hook)
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def nest(spans: List[Span]) -> Tuple[List[Span], List[int], List[float]]:
    """Order spans by start; return them with parent indices and self times."""
    ordered = sorted(spans, key=lambda span: (span[1], -span[2]))
    parents = [-1] * len(ordered)
    child_seconds = [0.0] * len(ordered)
    open_spans: List[int] = []
    for index, (_, start, end, _) in enumerate(ordered):
        # A span that ends before this one cannot contain it.  Besides spans
        # that closed before it started, that drops a kernel's first child
        # when the kernel's reconstructed start lands just after the child's.
        while open_spans and ordered[open_spans[-1]][2] < end:
            open_spans.pop()
        if open_spans:
            parent = open_spans[-1]
            parents[index] = parent
            child_seconds[parent] += end - start
        open_spans.append(index)
    self_seconds = [
        end - start - child_seconds[index]
        for index, (_, start, end, _) in enumerate(ordered)
    ]
    return ordered, parents, self_seconds


class SpanSummary:
    """Per-unit means of span calls, seconds and self seconds over traced units.

    Durations are kept for the ``percentile_spans`` only.
    """

    def __init__(self, percentile_spans=()) -> None:
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.self_seconds: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {name: [] for name in percentile_spans}
        self.units = 0

    def add(self, ordered: List[Span], self_seconds: List[float]) -> None:
        """Fold one traced unit's nested spans into the summary."""
        self.units += 1
        durations = self.durations
        for (name, start, end, _), own in zip(ordered, self_seconds, strict=True):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.seconds[name] = self.seconds.get(name, 0.0) + (end - start)
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + own
            if name in durations:
                durations[name].append(end - start)

    def value(self, span: str, field: str) -> float:
        """``calls``, ``s`` or ``self_s`` per traced unit, or a ``pNN_us`` percentile."""
        if field == "calls":
            return self.calls.get(span, 0) / self.units
        if field == "s":
            return self.seconds.get(span, 0.0) / self.units
        if field == "self_s":
            return self.self_seconds.get(span, 0.0) / self.units
        if field.startswith("p") and field.endswith("_us"):
            samples = self.durations[span]
            if not samples:
                return 0.0
            return float(np.percentile(samples, float(field[1:-3]))) * 1e6
        raise KeyError("unknown span field %r" % field)


def known_spans() -> List[str]:
    """Every span name a traced run can record."""
    names = {DRIVER_SPAN, "kernels.day_tail"}
    names.update("kernels." + kernel for kernel in VALID_KERNELS)
    names.update(name for _, _, name, _ in TARGETS)
    return sorted(names)


def write_spans(path, ordered: List[Span], parents: List[int]) -> None:
    """One JSON object per span: id, parent, trace id, name, start and end (µs)."""
    origin = ordered[0][1] if ordered else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, trace_id) in enumerate(ordered):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "parent": parents[index],
                        "trace": trace_id,
                        "name": name,
                        "start_us": round((start - origin) * 1e6, 3),
                        "end_us": round((end - origin) * 1e6, 3),
                    }
                )
                + "\n"
            )
