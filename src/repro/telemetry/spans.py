"""Timing spans for the kernel dispatch layer (and anything else).

A :class:`SpanTable` is a name -> (count, total seconds) accumulator; a
:class:`TimedKernelBackend` is a proxy of the numpy kernel backend that
times every kernel call into such a table while delegating the actual work
(and the parity contract) to the wrapped backend.  The proxy
is installed through the kernel registry's instrumentation hook
(:func:`repro.core.kernels.set_kernel_instrumentation`), so every
``get_backend()`` dispatch site — the batch simulator's day step, the
sweep's feedback flushes, the serving state's flush path — reports
per-kernel wall time without any of those call sites changing.  When no
recorder is installed the hook is a single ``is None`` check and the
proxy never exists: zero overhead for the default path.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List

from repro.core.kernels import VALID_KERNELS


class Span:
    """One named timing context (used via :meth:`SpanTable.span`)."""

    __slots__ = ("table", "name", "_started")

    def __init__(self, table: "SpanTable", name: str) -> None:
        self.table = table
        self.name = name
        self._started = 0.0

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.table.observe(self.name, time.perf_counter() - self._started)


class SpanTable:
    """Accumulates call count and total wall time per span name.

    Replicate blocks run kernels on concurrent threads, so folds take a
    lock; spans that overlap in time each add their full duration.
    """

    __slots__ = ("_spans", "_lock")

    def __init__(self) -> None:
        self._spans: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    def observe(self, name: str, seconds: float) -> None:
        """Fold one completed span into the table."""
        with self._lock:
            entry = self._spans.get(name)
            if entry is None:
                self._spans[name] = [1.0, seconds]
            else:
                entry[0] += 1.0
                entry[1] += seconds

    def span(self, name: str) -> Span:
        """A ``with``-statement timing context recording into ``name``."""
        return Span(self, name)

    def __len__(self) -> int:
        return len(self._spans)

    def as_dict(self) -> Dict[str, float]:
        """Flat ``{span_<name>_calls, span_<name>_seconds}`` report."""
        report: Dict[str, float] = {}
        with self._lock:
            for name in sorted(self._spans):
                count, seconds = self._spans[name]
                report["span_%s_calls" % name] = count
                report["span_%s_seconds" % name] = seconds
        return report


class TimedKernelBackend:
    """Kernel backend proxy: same results, plus a span per kernel call.

    Every kernel of :data:`~repro.core.kernels.VALID_KERNELS`, and the
    ``day_tail`` composite, is bound on the proxy as a timed wrapper of the
    wrapped backend's method; spans are named ``<kernel>@<backend>``
    (``rank_day@numpy``) and reported through ``spans.observe(name,
    seconds)``.  ``day_tail`` is timed as the composite the caller sees;
    the wrapped backend's internal ``visit_allocate``/``awareness_update``
    chaining is *not* separately timed (the inner backend calls its own
    methods, not the proxy's), which keeps span totals additive.
    """

    def __init__(self, inner, spans: SpanTable) -> None:
        self._inner = inner
        self.name = inner.name
        for kernel in VALID_KERNELS + ("day_tail",):
            span = "%s@%s" % (kernel, inner.name)
            setattr(self, kernel, _timed(getattr(inner, kernel), span, spans))


def _timed(kernel: Callable, span: str, spans: SpanTable) -> Callable:
    """``kernel`` reporting each call's wall time to ``spans`` as ``span``."""

    def timed(*args, **kwargs):
        started = time.perf_counter()
        try:
            return kernel(*args, **kwargs)
        finally:
            spans.observe(span, time.perf_counter() - started)

    return timed


__all__ = ["Span", "SpanTable", "TimedKernelBackend"]
