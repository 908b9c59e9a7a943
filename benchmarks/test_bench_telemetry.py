"""Benchmark: telemetry recorder overhead on the pinned serving stream.

Runs the identical serving stream with the null recorder and with a live
windowed :class:`~repro.telemetry.TelemetryRecorder` (kernel spans
installed), interleaved best-of-3, and reports the enabled/disabled QPS
ratio.  The regression gate floors ``telemetry_overhead_ratio`` in
``benchmarks/baselines/bench-floor.json`` — the observability layer's
"zero overhead when disabled, cheap when enabled" contract is enforced,
not assumed.  The run also asserts bit-identical router stats between the
two passes: recording must never perturb serving.
"""

from repro.serving.bench import measure_telemetry_overhead

from conftest import run_report_once

TELEMETRY_INFO_KEYS = (
    "n_pages",
    "queries",
    "telemetry_window",
    "qps_disabled",
    "qps_enabled",
    "telemetry_overhead_ratio",
    "overhead_us_per_query",
    "parity_bit_identical",
)


def test_bench_telemetry_overhead(benchmark, bench_seed):
    # The shape is the gated serving benchmark's paper-plus scale
    # (test_bench_serving_topk[200000]), so the ratio and the serving
    # floors describe the same pinned workload.
    report = run_report_once(
        benchmark,
        measure_telemetry_overhead,
        TELEMETRY_INFO_KEYS,
        n_pages=200_000,
        n_queries=1_000,
        k=20,
        n_shards=4,
        telemetry_window=1024,
        seed=bench_seed,
    )
    # A live recorder must not change a single served page or counter.
    assert report["parity_bit_identical"] == 1.0
    # Generous in-test bound so shared runners don't flake the suite; the
    # real floor (0.95, i.e. <=5% overhead) lives in the benchgate baseline.
    assert report["telemetry_overhead_ratio"] > 0.5
    assert report["qps_disabled"] > 0
