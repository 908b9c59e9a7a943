"""The telemetry recorder: windowed serving metrics, spans, JSONL output.

One :class:`TelemetryRecorder` is shared by every instrumented component
of a run (router, engines, result caches, batch simulator, kernel proxy).
Hot paths call its ``record_*`` methods, which are plain counter bumps
into a :class:`~repro.telemetry.window.SlidingWindowCounters`; at every
sub-window boundary the recorder derives a windowed metrics row (hit
rate, staleness, QPC, per-shard QPS over the trailing window) and emits
it as one JSON line.  :meth:`snapshot` folds the end-of-run totals,
stream quantiles and kernel spans into a flat dictionary for benchmark
``extra_info``.

The **disabled** path is :data:`NULL_RECORDER` — a stateless singleton
whose ``enabled`` attribute is False and whose methods do nothing.
Instrumented hot paths hold a recorder reference and guard with
``if telemetry.enabled:``, so a run without telemetry pays one attribute
load and a predictable branch per event, nothing else.
"""

from __future__ import annotations

import json
from typing import Dict, IO, List, Optional, Sequence, Union

from repro.telemetry.instruments import QuantileBank
from repro.telemetry.spans import SpanTable, TimedKernelBackend
from repro.telemetry.window import SlidingWindowCounters, ratio

#: Counter layout of the sliding window (order is the wire format of the
#: JSONL rows; per-shard query counters are appended after these).
BASE_FIELDS = (
    "queries",
    "cache_hits",
    "cache_misses",
    "occ_rejections",
    "staleness_sum",
    "feedback_events",
    "clicked_quality_sum",
    "flushes",
    "flush_size_sum",
    "repairs",
    "full_sorts",
    # OCC write path + degradation (PR 7); appended so the hot-path
    # cumulative indices of the earlier fields stay frozen.
    "occ_conflicts",
    "occ_retries",
    "occ_dead_letters",
    "degraded_serves",
    "load_sheds",
    # Route mix of the removed adaptive rank_day router.  Nothing records
    # them any more, so they read 0; the schema is append-only, so they stay.
    "rank_route_full",
    "rank_route_run_merge",
    "rank_route_windowed",
    "rank_route_copy",
    "rank_displacement_sum",
)

DEFAULT_WINDOW = 1024
DEFAULT_BUCKETS = 8
DEFAULT_QUANTILES = (0.5, 0.9)

#: Default sample stride for the stream quantile sketches: every Nth
#: staleness observation is folded into the P² bank (statsd-style sample
#: rate).  Counters stay exact — sampling only thins the quantile feed,
#: whose P50/P90 estimates are statistical to begin with — and it keeps
#: the per-event cost of an *enabled* recorder inside the overhead budget
#: ``benchmarks/test_bench_telemetry.py`` gates.  Pass ``1`` to observe
#: every event.
DEFAULT_QUANTILE_SAMPLE = 8


class NullRecorder:
    """The do-nothing recorder installed on every hot path by default."""

    enabled = False

    def record_query(self, shard: int) -> None:
        pass

    def record_hit(self, staleness: int) -> None:
        pass

    def record_miss(self) -> None:
        pass

    def record_occ_rejection(self, staleness: int) -> None:
        pass

    def record_feedback(self, quality: float) -> None:
        pass

    def record_flush(self, size: int) -> None:
        pass

    def record_repair(self) -> None:
        pass

    def record_full_sort(self) -> None:
        pass

    def record_commit_conflict(self) -> None:
        pass

    def record_commit_retry(self) -> None:
        pass

    def record_dead_letter(self, events: int) -> None:
        pass

    def record_degraded_serve(self, staleness: int) -> None:
        pass

    def record_load_shed(self) -> None:
        pass

    def record_recovery(self, shard: int, seconds: float) -> None:
        pass

    def record_day_step(self, day: int, seconds: float) -> None:
        pass

    def emit_row(self, row: Dict[str, float]) -> None:
        pass

    def snapshot(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


#: Shared disabled recorder; components default their ``telemetry``
#: attribute to this singleton.
NULL_RECORDER = NullRecorder()


class TelemetryRecorder:
    """Streaming windowed telemetry for one serving/simulation run.

    Args:
        window: events (served queries) per sliding window.
        buckets: sub-windows per window; rows are emitted once per
            sub-window boundary.
        out: JSONL destination — a path, an open text handle, or ``None``
            to keep rows in memory only (``rows`` retains every emitted
            row either way, which is what the figure drivers consume).
        n_shards: number of per-shard query counters to allocate.
        quantiles: staleness quantiles tracked by the P² bank.  Estimates
            are over the whole stream (P² sketches are not windowable);
            rows tag them ``stream_`` to keep that explicit.
        quantile_sample: sample stride for the quantile feed — every Nth
            staleness observation reaches the P² bank
            (:data:`DEFAULT_QUANTILE_SAMPLE`); ``1`` observes everything.
        label: stream tag stamped on every emitted row.
    """

    enabled = True

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        buckets: int = DEFAULT_BUCKETS,
        out: Union[None, str, IO[str]] = None,
        n_shards: int = 1,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        quantile_sample: int = DEFAULT_QUANTILE_SAMPLE,
        label: str = "serve",
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1, got %d" % n_shards)
        if quantile_sample < 1:
            raise ValueError(
                "quantile_sample must be >= 1, got %d" % quantile_sample
            )
        self.label = str(label)
        self.n_shards = int(n_shards)
        self.quantile_sample = int(quantile_sample)
        fields = list(BASE_FIELDS) + [
            "shard%d_queries" % shard for shard in range(self.n_shards)
        ]
        self.window = SlidingWindowCounters(fields, window, buckets)
        self.staleness_quantiles = QuantileBank(quantiles)
        self.spans = SpanTable()
        self.rows: List[Dict[str, float]] = []
        # Hot-path aliases: the record_* methods below are called per
        # served query, so the window clock and bucket test are inlined
        # here instead of going through SlidingWindowCounters.tick().
        self._cum = self.window.cumulative
        self._shard_base = len(BASE_FIELDS)
        self._bucket_size = self.window.bucket_size
        self._staleness_seen = 0
        self._out_path: Optional[str] = None
        self._out: Optional[IO[str]] = None
        self._owns_out = False
        if isinstance(out, str):
            self._out_path = out
        elif out is not None:
            self._out = out
        self._kernel_spans_installed = False
        self._closed = False

    # ------------------------------------------------------------ hot path

    def record_query(self, shard: int) -> None:
        """One served query routed to ``shard``; drives the window clock."""
        cum = self._cum
        cum[0] += 1.0
        cum[self._shard_base + shard] += 1.0
        window = self.window
        window.events = events = window.events + 1
        if not events % self._bucket_size:
            self._emit_window_row()
            window.rotate()

    def record_hit(self, staleness: int) -> None:
        """A cache hit served at ``staleness`` versions of lag."""
        cum = self._cum
        cum[1] += 1.0
        cum[4] += staleness
        self._staleness_seen = seen = self._staleness_seen + 1
        if not seen % self.quantile_sample:
            self.staleness_quantiles.observe(staleness)

    def record_miss(self) -> None:
        """A cache miss (no entry for the key)."""
        self._cum[2] += 1.0

    def record_occ_rejection(self, staleness: int) -> None:
        """A validate-on-read failure: entry too stale, recompute forced.

        Counts as a miss as well, mirroring
        :class:`~repro.serving.cache.CacheStats` exactly.
        """
        cum = self._cum
        cum[2] += 1.0
        cum[3] += 1.0
        self._staleness_seen = seen = self._staleness_seen + 1
        if not seen % self.quantile_sample:
            self.staleness_quantiles.observe(staleness)

    def record_feedback(self, quality: float) -> None:
        """One click fed back; ``quality`` is the clicked page's quality."""
        cum = self._cum
        cum[5] += 1.0
        cum[6] += quality

    def record_flush(self, size: int) -> None:
        """One feedback flush applying ``size`` buffered events."""
        cum = self._cum
        cum[7] += 1.0
        cum[8] += size

    def record_repair(self) -> None:
        """One incremental order repair on a serving engine."""
        self._cum[9] += 1.0

    def record_full_sort(self) -> None:
        """One full re-sort of a serving engine's maintained order."""
        self._cum[10] += 1.0

    def record_commit_conflict(self) -> None:
        """One OCC feedback commit rejected by the version check."""
        self._cum[11] += 1.0

    def record_commit_retry(self) -> None:
        """One backed-off retry of a conflicted feedback commit."""
        self._cum[12] += 1.0

    def record_dead_letter(self, events: int) -> None:
        """One batch of ``events`` feedback events dead-lettered."""
        self._cum[13] += events

    def record_degraded_serve(self, staleness: int) -> None:
        """One stale last-known-good page served while a shard was down."""
        self._cum[14] += 1.0
        self._staleness_seen = seen = self._staleness_seen + 1
        if not seen % self.quantile_sample:
            self.staleness_quantiles.observe(staleness)

    def record_load_shed(self) -> None:
        """One query shed: shard down and staleness budget exhausted."""
        self._cum[15] += 1.0

    def record_recovery(self, shard: int, seconds: float) -> None:
        """One crashed shard rebuilt from checkpoint + journal replay."""
        self.spans.observe("shard_recovery", seconds)
        self.emit_row(
            {"kind": "recovery", "shard": float(shard), "seconds": seconds}
        )

    # ------------------------------------------------- simulation / spans

    def record_day_step(self, day: int, seconds: float) -> None:
        """One batch-simulation day step; emits a per-day timing row."""
        self.spans.observe("day_step", seconds)
        self.emit_row({"kind": "day", "day": float(day), "seconds": seconds})

    def install_kernel_spans(self) -> None:
        """Time every kernel dispatch into this recorder's span table.

        Installs a proxy factory on the kernel registry; undone by
        :meth:`close` (or an explicit
        :func:`repro.core.kernels.set_kernel_instrumentation` call).
        """
        from repro.core.kernels import set_kernel_instrumentation

        proxies: Dict[int, TimedKernelBackend] = {}

        def wrap(backend):
            proxy = proxies.get(id(backend))
            if proxy is None:
                proxy = TimedKernelBackend(backend, self.spans)
                proxies[id(backend)] = proxy
            return proxy

        set_kernel_instrumentation(wrap)
        self._kernel_spans_installed = True

    # ------------------------------------------------------------- output

    def _emit_window_row(self) -> None:
        row = self.window.row()
        self._derive(row)
        row["kind"] = "window"
        self.emit_row(row)

    def flush_window(self) -> Optional[Dict[str, float]]:
        """Emit a final (possibly partial) window row at stream end.

        Emitted whenever any counter moved since the last boundary row —
        a partial bucket, or trailing non-query events (the final query's
        feedback, an end-of-stream flush) that landed after the last
        boundary tick.  Skipped when the last boundary row already covers
        everything, so windowed rows always add up to the end-of-run
        totals exactly.  Returns the emitted row, if any.
        """
        window = self.window
        if window.events == 0 or not window.pending():
            return None
        self._emit_window_row()
        window.rotate()
        return self.rows[-1]

    def _derive(self, row: Dict[str, float]) -> None:
        """Attach the derived trailing-window metrics to a counter row."""
        lookups = row["cache_hits"] + row["cache_misses"]
        row["cache_hit_rate"] = (
            row["cache_hits"] / lookups if lookups else 0.0
        )
        hit_rate_denominator = row["cache_hits"]
        mean_staleness = ratio(row["staleness_sum"], hit_rate_denominator)
        if mean_staleness is not None:
            row["staleness_mean"] = mean_staleness
        qpc = ratio(row["clicked_quality_sum"], row["feedback_events"])
        if qpc is not None:
            row["qpc"] = qpc
        if row["window_seconds"] > 0:
            row["qps"] = row["window_events"] / row["window_seconds"]
            for shard in range(self.n_shards):
                row["shard%d_qps" % shard] = (
                    row["shard%d_queries" % shard] / row["window_seconds"]
                )
        for name, value in self.staleness_quantiles.values(
            prefix="stream_staleness_p"
        ).items():
            if value == value:  # skip NaN before any observation
                row[name] = value

    def emit_row(self, row: Dict[str, float]) -> None:
        """Record one row (and append it to the JSONL stream, if any)."""
        row.setdefault("kind", "window")
        row.setdefault("stream", self.label)
        self.rows.append(row)
        handle = self._handle()
        if handle is not None:
            handle.write(json.dumps(row, sort_keys=True) + "\n")

    def _handle(self) -> Optional[IO[str]]:
        if self._out is None and self._out_path is not None:
            self._out = open(self._out_path, "w")
            self._owns_out = True
        return self._out

    # ------------------------------------------------------------ results

    def snapshot(self) -> Dict[str, float]:
        """End-of-run totals, quantiles and spans as one flat dictionary.

        Keys are ``telemetry_``-prefixed so they can be folded into a
        benchmark report (and its ``extra_info``) without collisions.
        """
        report: Dict[str, float] = {}
        for name, value in zip(self.window.fields, self.window.cumulative, strict=True):
            report["telemetry_%s" % name] = value
        report["telemetry_events"] = float(self.window.events)
        lookups = report["telemetry_cache_hits"] + report["telemetry_cache_misses"]
        report["telemetry_cache_hit_rate"] = (
            report["telemetry_cache_hits"] / lookups if lookups else 0.0
        )
        qpc = ratio(
            report["telemetry_clicked_quality_sum"],
            report["telemetry_feedback_events"],
        )
        if qpc is not None:
            report["telemetry_qpc"] = qpc
        staleness_mean = ratio(
            report["telemetry_staleness_sum"], report["telemetry_cache_hits"]
        )
        if staleness_mean is not None:
            report["telemetry_staleness_mean"] = staleness_mean
        for name, value in self.staleness_quantiles.values(
            prefix="staleness_p"
        ).items():
            if value == value:
                report["telemetry_%s" % name] = value
        for name, value in self.spans.as_dict().items():
            report["telemetry_%s" % name] = value
        report["telemetry_rows_emitted"] = float(len(self.rows))
        return report

    def close(self) -> None:
        """Emit the final partial window, close the JSONL file, unhook spans.

        Idempotent, and the exit arm of the context-manager protocol — a
        run that dies mid-stream (a load-shed escaping a chaos replay, a
        crashed bench) still flushes its pending window row and leaves a
        complete JSONL trace behind.  Caller-owned handles are flushed but
        not closed.
        """
        if self._closed:
            return
        self._closed = True
        self.flush_window()
        if self._kernel_spans_installed:
            from repro.core.kernels import set_kernel_instrumentation

            set_kernel_instrumentation(None)
            self._kernel_spans_installed = False
        if self._out is not None:
            if self._owns_out:
                self._out.close()
                self._out = None
            else:
                self._out.flush()

    def __enter__(self) -> "TelemetryRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


__all__ = [
    "BASE_FIELDS",
    "DEFAULT_WINDOW",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
    "DEFAULT_QUANTILE_SAMPLE",
    "NullRecorder",
    "NULL_RECORDER",
    "TelemetryRecorder",
]
