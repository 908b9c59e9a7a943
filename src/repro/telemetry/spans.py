"""Timing spans for the kernel dispatch layer (and anything else).

A :class:`SpanTable` is a name -> (count, total seconds) accumulator; a
:class:`TimedKernelBackend` is a :class:`~repro.core.kernels.api.KernelBackend`
proxy that times every kernel call into such a table while delegating the
actual work (and the parity contract) to the wrapped backend.  The proxy
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.kernels.api import KernelBackend


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


class TimedKernelBackend(KernelBackend):
    """Kernel backend proxy: same results, plus a span per kernel call.

    Spans are named ``<kernel>@<backend>`` (``rank_day@numpy``).
    ``day_tail`` is timed as the composite the caller sees; the wrapped
    backend's internal ``visit_allocate``/``awareness_update`` chaining is
    *not* separately timed (the inner backend calls its own methods, not
    the proxy's), which keeps span totals additive.
    """

    def __init__(self, inner: KernelBackend, spans: SpanTable) -> None:
        self._inner = inner
        self._spans = spans
        self.name = inner.name

    def _record(self, kernel: str, started: float) -> None:
        self._spans.observe(
            "%s@%s" % (kernel, self._inner.name), time.perf_counter() - started
        )

    # ------------------------------------------------------------- kernels

    def rank_day(
        self,
        scores: np.ndarray,
        ages: Optional[np.ndarray],
        tie_breaker: str,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        started = time.perf_counter()
        try:
            return self._inner.rank_day(scores, ages, tie_breaker, rngs)
        finally:
            self._record("rank_day", started)

    def awareness_update(
        self,
        aware_count: np.ndarray,
        monitored_population: int,
        monitored_visits: np.ndarray,
        mode: str,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        started = time.perf_counter()
        try:
            return self._inner.awareness_update(
                aware_count, monitored_population, monitored_visits, mode, rngs
            )
        finally:
            self._record("awareness_update", started)

    def visit_allocate(
        self,
        rankings: np.ndarray,
        shares_by_rank: np.ndarray,
        rate: float,
        mode: str,
        rngs: Sequence[np.random.Generator],
        surfing_fraction: float = 0.0,
        surf_shares: Optional[np.ndarray] = None,
        out_shares: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        started = time.perf_counter()
        try:
            return self._inner.visit_allocate(
                rankings, shares_by_rank, rate, mode, rngs,
                surfing_fraction=surfing_fraction,
                surf_shares=surf_shares,
                out_shares=out_shares,
            )
        finally:
            self._record("visit_allocate", started)

    def promotion_merge(
        self,
        perms: np.ndarray,
        promoted_mask: np.ndarray,
        k: int,
        r: float,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        started = time.perf_counter()
        try:
            return self._inner.promotion_merge(perms, promoted_mask, k, r, rngs)
        finally:
            self._record("promotion_merge", started)

    def lane_repair(
        self,
        orders: Sequence[np.ndarray],
        popularity: Sequence[np.ndarray],
        dirty: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        started = time.perf_counter()
        try:
            return self._inner.lane_repair(orders, popularity, dirty)
        finally:
            self._record("lane_repair", started)

    def feedback_flush(
        self,
        aware: np.ndarray,
        popularity: np.ndarray,
        quality: np.ndarray,
        dirty: np.ndarray,
        touched: np.ndarray,
        summed: np.ndarray,
        monitored_population: int,
    ) -> None:
        started = time.perf_counter()
        try:
            return self._inner.feedback_flush(
                aware, popularity, quality, dirty, touched, summed,
                monitored_population,
            )
        finally:
            self._record("feedback_flush", started)

    # ----------------------------------------------------------- composite

    def day_tail(
        self,
        rankings: np.ndarray,
        shares_by_rank: np.ndarray,
        rate: float,
        mode: str,
        rngs: Sequence[np.random.Generator],
        aware_count: np.ndarray,
        monitored_population: int,
        surfing_fraction: float = 0.0,
        surf_shares: Optional[np.ndarray] = None,
        out_shares: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        started = time.perf_counter()
        try:
            return self._inner.day_tail(
                rankings, shares_by_rank, rate, mode, rngs,
                aware_count, monitored_population,
                surfing_fraction=surfing_fraction,
                surf_shares=surf_shares,
                out_shares=out_shares,
            )
        finally:
            self._record("day_tail", started)


__all__ = ["Span", "SpanTable", "TimedKernelBackend"]
