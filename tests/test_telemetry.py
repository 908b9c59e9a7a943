"""Tests for the streaming telemetry layer (``repro.telemetry``).

Four contracts are pinned here:

* **P² accuracy** — the streaming quantile is bit-identical to
  ``numpy.percentile`` through its exact storage phase (n <= 5), always
  bracketed by the observed minimum and maximum afterwards, and within
  the documented ``q +/- 0.15`` empirical band for continuous i.i.d.
  streams at n >= 100 (hypothesis-fuzzed);
* **window exactness** — a trailing-window aggregate is a difference of
  cumulative sums, so while the stream is no longer than the window every
  windowed counter equals the end-of-run total bit for bit, for serving
  streams and for fluid/stochastic batch-simulation runs;
* **observation is passive** — a live recorder must not change a single
  served page or counter: runs with telemetry on and off produce
  identical router stats, and batch-simulation results are bit-identical
  with kernel spans installed or not;
* **disabled means free** — the null recorder is inert, and components
  default to it.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community.config import DEFAULT_COMMUNITY
from repro.core.kernels import VALID_KERNELS, get_backend, set_kernel_instrumentation
from repro.core.policy import RECOMMENDED_POLICY
from repro.serving.bench import (
    measure_telemetry_overhead,
    seed_steady_state_awareness,
)
from repro.serving.cache import CacheStats, ResultPageCache
from repro.serving.figures import (
    load_telemetry_rows,
    sweep_tradeoff_figures,
    telemetry_series_figure,
)
from repro.serving.config import ServingConfig, build_router
from repro.serving.sweep import run_sweep, variant_grid
from repro.serving.workload import (
    StreamingWorkload,
    WorkloadConfig,
    record_trace,
    run_stream,
)
from repro.simulation.batch import run_batch
from repro.simulation.config import SimulationConfig
from repro.telemetry import (
    BASE_FIELDS,
    NULL_RECORDER,
    NullRecorder,
    P2Quantile,
    QuantileBank,
    SlidingWindowCounters,
    SpanTable,
    TelemetryRecorder,
    TimedKernelBackend,
    ratio,
)
from repro.utils.rng import derive_seed, spawn_rngs


@pytest.fixture(autouse=True)
def clean_instrumentation():
    """Never let one test's kernel spans hook leak into the next test."""
    yield
    set_kernel_instrumentation(None)


# ------------------------------------------------------------------ P²


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(q)

    def test_nan_before_first_observation(self):
        assert math.isnan(P2Quantile(0.5).value)

    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=5
        ),
        q=st.sampled_from([0.1, 0.25, 0.5, 0.9, 0.99]),
    )
    @settings(max_examples=200, deadline=None)
    def test_storage_phase_bit_identical_to_numpy(self, values, q):
        sketch = P2Quantile(q)
        for value in values:
            sketch.observe(value)
        assert sketch.value == float(np.percentile(values, q * 100.0))

    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=6, max_size=300
        ),
        q=st.sampled_from([0.1, 0.5, 0.9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_estimate_bracketed_by_observed_extremes(self, values, q):
        sketch = P2Quantile(q)
        for value in values:
            sketch.observe(value)
        assert min(values) <= sketch.value <= max(values)
        assert sketch.count == len(values)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(100, 2_000),
        q=st.sampled_from([0.25, 0.5, 0.75, 0.9]),
    )
    @settings(max_examples=60, deadline=None)
    def test_continuous_iid_band(self, seed, n, q):
        """For continuous i.i.d. data the estimate sits in the q±0.15 band."""
        rng = np.random.default_rng(seed)
        values = rng.random(n)
        sketch = P2Quantile(q)
        for value in values:
            sketch.observe(float(value))
        low = float(np.quantile(values, max(0.0, q - 0.15)))
        high = float(np.quantile(values, min(1.0, q + 0.15)))
        assert low <= sketch.value <= high

    def test_bank_labels_and_count(self):
        bank = QuantileBank((0.5, 0.9, 0.999))
        assert bank.count == 0
        for value in (1.0, 2.0, 3.0):
            bank.observe(value)
        values = bank.values(prefix="p")
        assert set(values) == {"p50", "p90", "p99_9"}
        assert bank.count == 3


# -------------------------------------------------------------- window


class TestSlidingWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowCounters(["a"], window=0)
        with pytest.raises(ValueError):
            SlidingWindowCounters(["a"], window=4, buckets=0)
        with pytest.raises(ValueError):
            SlidingWindowCounters(["a", "a"], window=4)

    def test_windowed_equals_cumulative_while_stream_fits(self):
        window = SlidingWindowCounters(["hits", "sum"], window=64, buckets=8)
        for event in range(64):
            window.add(0, 1.0)
            window.add(1, 0.1 * event)
            if window.tick():
                _, _, _, values = window.delta()
                assert values == window.cumulative  # bit for bit
                window.rotate()

    @given(
        amounts=st.lists(st.integers(0, 5), min_size=1, max_size=200),
        window_size=st.integers(1, 64),
        buckets=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_delta_matches_naive_rescan(self, amounts, window_size, buckets):
        """After any rotation pattern the delta equals a naive re-sum."""
        window = SlidingWindowCounters(["x"], window=window_size, buckets=buckets)
        boundaries = [0]
        for amount in amounts:
            window.add(0, float(amount))
            if window.tick():
                window.rotate()
                boundaries.append(window.events)
        start_event, end_event, _, values = window.delta()
        assert end_event == len(amounts)
        # The baseline snapshot is the oldest retained bucket boundary.
        retained = boundaries[-window.capacity:]
        assert start_event == retained[0]
        assert values[0] == float(sum(amounts[start_event:]))

    def test_row_names_fields(self):
        window = SlidingWindowCounters(["hits", "misses"], window=8, buckets=2)
        window.add(0, 3.0)
        window.tick()
        row = window.row()
        assert row["hits"] == 3.0
        assert row["misses"] == 0.0
        assert row["event_end"] == 1.0

    def test_ratio_helper(self):
        assert ratio(1.0, 0.0) is None
        assert ratio(1.0, 2.0) == 0.5


# --------------------------------------------------------------- spans


def _small_kernel_args(kernel):
    """Positional arguments for one small ``kernel`` call, fixed by seed."""
    R, n, m = 3, 12, 10
    rng = np.random.default_rng(7)
    rngs = list(spawn_rngs(0, R))
    rankings = np.argsort(-rng.random((R, n)), axis=1)
    aware = np.floor(rng.random((R, n)) * m)
    shares_by_rank = np.full(n, 1.0 / n)
    if kernel == "rank_day":
        return (np.round(rng.random((R, n)), 1), None, "random", rngs)
    if kernel == "awareness_update":
        visits = rng.integers(0, 3, size=(R, n)).astype(float)
        return (aware, m, visits, "stochastic", rngs)
    if kernel == "visit_allocate":
        return (rankings, shares_by_rank, 5.0, "stochastic", rngs)
    if kernel == "promotion_merge":
        return (rankings, rng.random((R, n)) < 0.3, 1, 0.5, rngs)
    if kernel == "lane_repair":
        popularity = [rng.random(n) for _ in range(R)]
        orders = [np.argsort(-lane) for lane in popularity]
        dirty = [np.array([1, 5]) for _ in range(R)]
        for lane in popularity:
            lane[[1, 5]] = rng.random(2)
        return (orders, popularity, dirty)
    if kernel == "feedback_flush":
        touched = np.array([0, 4, 7, 20])
        return (
            aware.ravel(), np.zeros(R * n), rng.random(R * n),
            np.zeros(R * n, dtype=bool), touched, np.array([1.0, 2.0, 1.0, 3.0]), m,
        )
    if kernel == "day_tail":
        return (rankings, shares_by_rank, 5.0, "stochastic", rngs, aware, m)
    raise AssertionError("no inputs for kernel %r" % kernel)


def _assert_same(ours, theirs):
    """Equal arrays (or sequences of them), generator states included."""
    if isinstance(ours, (tuple, list)):
        assert len(ours) == len(theirs)
        for mine, other in zip(ours, theirs, strict=True):
            _assert_same(mine, other)
    elif isinstance(ours, np.random.Generator):
        assert ours.bit_generator.state == theirs.bit_generator.state
    elif isinstance(ours, np.ndarray):
        assert np.array_equal(ours, theirs)
    else:
        assert ours == theirs


class TestSpans:
    def test_span_table_accumulates(self):
        table = SpanTable()
        table.observe("rank", 0.5)
        table.observe("rank", 0.25)
        table.observe("flush", 1.0)
        report = table.as_dict()
        assert report["span_rank_calls"] == 2.0
        assert report["span_rank_seconds"] == 0.75
        assert report["span_flush_calls"] == 1.0

    @pytest.mark.parametrize("kernel", VALID_KERNELS + ("day_tail",))
    def test_timed_backend_is_transparent_and_records(self, kernel):
        table = SpanTable()
        raw = get_backend()
        timed = TimedKernelBackend(raw, table)
        # Equal seeds give equal inputs; in-place kernels write into them.
        ours_args = _small_kernel_args(kernel)
        theirs_args = _small_kernel_args(kernel)
        ours = getattr(timed, kernel)(*ours_args)
        theirs = getattr(raw, kernel)(*theirs_args)
        _assert_same(ours, theirs)
        _assert_same(ours_args, theirs_args)
        report = table.as_dict()
        assert report["span_%s@numpy_calls" % kernel] == 1.0
        assert report["span_%s@numpy_seconds" % kernel] >= 0.0
        # day_tail's inner visit_allocate/awareness_update chain runs on the
        # raw backend, so the composite is the only span.
        assert len(table) == 1

    def test_kernel_instrumentation_hook(self):
        recorder = TelemetryRecorder(window=8)
        recorder.install_kernel_spans()
        try:
            backend = get_backend()
            assert isinstance(backend, TimedKernelBackend)
            # The proxy wraps the raw backend, never another proxy.
            assert not isinstance(backend._inner, TimedKernelBackend)
            backend.rank_day(
                np.zeros((1, 4)), None, "index", list(spawn_rngs(0, 1))
            )
            assert recorder.spans.as_dict()["span_rank_day@numpy_calls"] == 1.0
        finally:
            recorder.close()
        # close() unhooks the proxy factory again.
        assert not isinstance(get_backend(), TimedKernelBackend)


# ------------------------------------------------------------ recorder


class TestNullRecorder:
    def test_inert(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        recorder.record_query(0)
        recorder.record_hit(1)
        recorder.record_miss()
        recorder.record_occ_rejection(2)
        recorder.record_feedback(0.5)
        recorder.record_flush(3)
        recorder.record_repair()
        recorder.record_full_sort()
        recorder.record_day_step(0, 0.1)
        recorder.emit_row({})
        assert recorder.snapshot() == {}
        recorder.close()

    def test_components_default_to_null(self):
        router = build_router(ServingConfig(n_pages=200, n_shards=2))
        assert router.telemetry is NULL_RECORDER
        for engine in router.engines:
            assert engine.telemetry is NULL_RECORDER
            assert engine.cache.telemetry is NULL_RECORDER


class TestTelemetryRecorder:
    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryRecorder(n_shards=0)
        with pytest.raises(ValueError):
            TelemetryRecorder(quantile_sample=0)

    def test_counters_and_snapshot(self):
        recorder = TelemetryRecorder(
            window=8, buckets=2, n_shards=2, quantile_sample=1
        )
        recorder.record_hit(2)
        recorder.record_query(0)
        recorder.record_miss()
        recorder.record_query(1)
        recorder.record_occ_rejection(5)
        recorder.record_query(1)
        recorder.record_feedback(0.25)
        recorder.record_flush(4)
        recorder.record_repair()
        recorder.record_full_sort()
        recorder.close()
        snapshot = recorder.snapshot()
        assert snapshot["telemetry_queries"] == 3.0
        assert snapshot["telemetry_cache_hits"] == 1.0
        # An OCC rejection counts as a miss too, mirroring CacheStats.
        assert snapshot["telemetry_cache_misses"] == 2.0
        assert snapshot["telemetry_occ_rejections"] == 1.0
        assert snapshot["telemetry_staleness_sum"] == 2.0
        assert snapshot["telemetry_shard0_queries"] == 1.0
        assert snapshot["telemetry_shard1_queries"] == 2.0
        assert snapshot["telemetry_feedback_events"] == 1.0
        assert snapshot["telemetry_clicked_quality_sum"] == 0.25
        assert snapshot["telemetry_flushes"] == 1.0
        assert snapshot["telemetry_flush_size_sum"] == 4.0
        assert snapshot["telemetry_repairs"] == 1.0
        assert snapshot["telemetry_full_sorts"] == 1.0
        assert snapshot["telemetry_cache_hit_rate"] == pytest.approx(1 / 3)
        assert snapshot["telemetry_qpc"] == 0.25
        # Quantile feed saw both staleness observations (sample stride 1).
        assert recorder.staleness_quantiles.count == 2

    def test_quantile_sampling_stride(self):
        recorder = TelemetryRecorder(window=8, quantile_sample=4)
        for _ in range(8):
            recorder.record_hit(1)
        assert recorder.staleness_quantiles.count == 2
        recorder.close()

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryRecorder(window=4, buckets=2, out=str(path), label="t") as r:
            for event in range(5):
                r.record_hit(event % 2)
                r.record_query(0)
        rows = load_telemetry_rows(str(path))
        assert rows == r.rows
        for row in rows:
            assert row["kind"] == "window"
            assert row["stream"] == "t"
            assert row["event_end"] > row["event_start"] or row["event_start"] == 0
            assert set(BASE_FIELDS) <= set(row)
        # 5 events over bucket size 2: boundary rows at 2 and 4, final
        # partial row at 5 from close().
        assert [row["event_end"] for row in rows] == [2.0, 4.0, 5.0]

    def test_flush_window_skips_exact_boundary(self):
        recorder = TelemetryRecorder(window=4, buckets=2)
        for _ in range(4):
            recorder.record_query(0)
        emitted = len(recorder.rows)
        assert recorder.flush_window() is None
        assert len(recorder.rows) == emitted
        recorder.close()


def _serving_run(n_queries, recorder=None, seed=7):
    router = build_router(
        ServingConfig(
            n_pages=600, n_shards=2, cache_capacity=32, staleness_budget=2, seed=seed
        )
    )
    seed_steady_state_awareness(router, rng=derive_seed(seed, "warm"))
    workload = StreamingWorkload(
        WorkloadConfig(n_distinct_queries=64, k=10, feedback_rate=0.3,
                       flush_every=32),
        seed=derive_seed(seed, "stream"),
    )
    if recorder is not None:
        router.attach_telemetry(recorder)
    try:
        run_stream(router, n_queries, workload=workload)
    finally:
        if recorder is not None:
            router.attach_telemetry(NULL_RECORDER)
    return router


class TestWindowedVsAggregate:
    def test_serving_full_window_row_equals_totals(self):
        """window > stream: the final row IS the end-of-run aggregate.

        The window is strictly larger than the stream so no bucket
        boundary fires mid-run (a boundary row at the last query would
        miss that query's own feedback, which run_stream submits after
        serve returns); close() then flushes a single partial row whose
        baseline is the zero origin — the full cumulative totals.
        """
        recorder = TelemetryRecorder(
            window=512, buckets=1, n_shards=2, quantile_sample=1
        )
        router = _serving_run(400, recorder)
        recorder.close()
        (row,) = [r for r in recorder.rows if r["kind"] == "window"]
        assert row["event_start"] == 0.0
        assert row["event_end"] == 400.0
        totals = dict(zip(recorder.window.fields, recorder.window.cumulative, strict=True))
        for field, total in totals.items():
            assert row[field] == total  # bit for bit
        # And the recorder agrees with the serving stack's own books.
        stats = router.cache_stats()
        assert row["queries"] == float(router.queries_routed)
        assert row["cache_hits"] == float(stats.hits)
        assert row["cache_misses"] == float(stats.misses)
        assert row["occ_rejections"] == float(stats.stale_evictions)
        assert row["shard0_queries"] == float(router.queries_per_shard[0])
        assert row["shard1_queries"] == float(router.queries_per_shard[1])

    def test_telemetry_does_not_perturb_serving(self):
        recorder = TelemetryRecorder(window=64, n_shards=2)
        recorder.install_kernel_spans()
        with_telemetry = _serving_run(300, recorder)
        recorder.close()
        without = _serving_run(300, None)
        assert with_telemetry.stats() == without.stats()

    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    def test_batch_day_rows_and_parity(self, mode):
        community = DEFAULT_COMMUNITY.scaled(300)
        config = SimulationConfig(
            warmup_days=3, measure_days=5, mode=mode, snapshot_awareness=False
        )
        ranker = RECOMMENDED_POLICY.build_ranker()
        baseline = run_batch(
            community, ranker, config, rngs=spawn_rngs(3, 4), n_workers=1
        )
        recorder = TelemetryRecorder(window=8, buckets=1, label="sim")
        recorder.install_kernel_spans()
        try:
            observed = run_batch(
                community, ranker, config, rngs=spawn_rngs(3, 4),
                n_workers=1, telemetry=recorder,
            )
        finally:
            recorder.close()
        # Observation is passive: per-replicate QPC is bit-identical.
        assert [r.qpc_absolute for r in observed] == [
            r.qpc_absolute for r in baseline
        ]
        day_rows = [row for row in recorder.rows if row["kind"] == "day"]
        assert [row["day"] for row in day_rows] == [float(d) for d in range(8)]
        snapshot = recorder.snapshot()
        assert snapshot["telemetry_span_day_step_calls"] == 8.0
        # The span total is the same float sum as the per-day rows.
        total = 0.0
        for row in day_rows:
            total += row["seconds"]
        assert snapshot["telemetry_span_day_step_seconds"] == total


# ------------------------------------------------ concurrent replicate blocks

def _hammer(update, threads=4, calls=5_000):
    """Call ``update`` from more threads than cores, switching often."""

    def work():
        for _ in range(calls):
            update()

    workers = [threading.Thread(target=work) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return threads * calls


class TestConcurrentBlocks:
    """Replicate blocks on threads: telemetry observes without steering."""

    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    def test_recorder_keeps_two_blocks_bit_identical(self, mode):
        community = DEFAULT_COMMUNITY.scaled(300)
        config = SimulationConfig(
            warmup_days=3, measure_days=5, mode=mode, snapshot_awareness=False
        )
        ranker = RECOMMENDED_POLICY.build_ranker()
        baseline = run_batch(
            community, ranker, config, rngs=spawn_rngs(3, 4), n_workers=1
        )
        recorder = TelemetryRecorder(window=8, buckets=1, label="sim")
        recorder.install_kernel_spans()
        try:
            observed = run_batch(
                community, ranker, config, rngs=spawn_rngs(3, 4),
                n_workers=2, telemetry=recorder,
            )
        finally:
            recorder.close()
        assert [r.qpc_absolute for r in observed] == [
            r.qpc_absolute for r in baseline
        ]
        day_rows = [row for row in recorder.rows if row["kind"] == "day"]
        assert [row["day"] for row in day_rows] == [float(d) for d in range(8)]
        snapshot = recorder.snapshot()
        assert snapshot["telemetry_span_day_step_calls"] == 8.0
        # Both blocks' kernels reach the one span table: a rank_day per
        # block per day.
        assert snapshot["telemetry_span_rank_day@numpy_calls"] == 16.0

    def test_span_table_updates_are_not_lost(self):
        table = SpanTable()
        total = _hammer(lambda: table.observe("rank_day@numpy", 1.0))
        report = table.as_dict()
        assert report["span_rank_day@numpy_calls"] == float(total)
        assert report["span_rank_day@numpy_seconds"] == float(total)


# ----------------------------------------------------- cache stats (sat 2)


class TestCacheStatsSnapshot:
    def test_snapshot_is_single_source_of_truth(self):
        stats = CacheStats(hits=3, misses=2, stale_evictions=1,
                           capacity_evictions=4, invalidations=5)
        snapshot = stats.snapshot()
        assert snapshot == {
            "hits": 3,
            "misses": 2,
            "staleness_rejections": 1,
            "capacity_evictions": 4,
            "invalidations": 5,
            "lookups": 5,
            "hit_rate": 0.6,
        }
        as_dict = stats.as_dict()
        assert as_dict["cache_hits"] == 3.0
        assert as_dict["cache_invalidations"] == 5.0

    def test_invalidate_counts(self):
        cache = ResultPageCache(capacity=4)
        cache.store("a", np.arange(3), version=0)
        cache.invalidate()
        cache.invalidate()
        assert cache.stats.invalidations == 2
        assert cache.lookup("a", current_version=0) is None

    def test_lookup_records_into_recorder(self):
        recorder = TelemetryRecorder(window=8, quantile_sample=1)
        cache = ResultPageCache(capacity=4, staleness_budget=1,
                                telemetry=recorder)
        cache.store("a", np.arange(3), version=0)
        assert cache.lookup("a", current_version=1) is not None  # hit
        assert cache.lookup("b", current_version=1) is None      # miss
        assert cache.lookup("a", current_version=5) is None      # stale
        recorder.close()
        snapshot = recorder.snapshot()
        assert snapshot["telemetry_cache_hits"] == 1.0
        assert snapshot["telemetry_cache_misses"] == 2.0
        assert snapshot["telemetry_occ_rejections"] == 1.0
        assert snapshot["telemetry_staleness_sum"] == 1.0
        # Recorder mirrors CacheStats exactly.
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.stale_evictions == 1


# ------------------------------------------------------- figures / bench


class TestFigures:
    def test_sweep_tradeoff_and_series_figures(self):
        variants = variant_grid(
            ks=[8], rs=[0.0, 0.2], staleness_budgets=[0, 2], shard_counts=[1]
        )
        workload = StreamingWorkload(
            WorkloadConfig(n_distinct_queries=32, k=8, feedback_rate=0.3,
                           flush_every=16),
            seed=derive_seed(11, "sweep-stream"),
        )
        trace = record_trace(workload, 160)
        recorder = TelemetryRecorder(window=32, label="sweep")
        try:
            result = run_sweep(
                DEFAULT_COMMUNITY.scaled(300), variants, trace, seed=11,
                n_workers=1, telemetry=recorder,
            )
        finally:
            recorder.close()
        figures = sweep_tradeoff_figures(result)
        names = [figure.experiment for figure in figures]
        assert "sweep-qpc" in names
        assert "sweep-hit-rate" in names
        for figure in figures:
            assert figure.series
            assert figure.render()
        sweep_rows = [r for r in recorder.rows if r["kind"] == "sweep"]
        assert sweep_rows, "live sweep emits per-variant boundary rows"
        series = telemetry_series_figure(recorder.rows, kind="sweep")
        assert series is not None
        assert any("[" in s.name for s in series.series)

    def test_series_figure_empty(self):
        assert telemetry_series_figure([], kind="window") is None


class TestOverheadBench:
    def test_overhead_report_shape(self):
        report = measure_telemetry_overhead(
            n_pages=1_000, n_queries=200, repetitions=1
        )
        assert report["parity_bit_identical"] == 1.0
        assert report["qps_disabled"] > 0
        assert report["qps_enabled"] > 0
        assert report["telemetry_overhead_ratio"] > 0
        assert "overhead_us_per_query" in report
