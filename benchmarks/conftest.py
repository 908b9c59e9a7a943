"""Benchmark harness configuration.

Each figure benchmark regenerates the data behind one figure of the paper;
the serving benchmarks drive the online engine under a streaming query
workload; the batch and sweep benchmarks measure the vectorized engines
against their sequential/independent baselines.  By default the drivers
run at the ``smoke`` scale so the whole harness finishes quickly; set
``REPRO_BENCH_SCALE=fast`` (or ``paper``) to regenerate the figures at
larger scales, and run with ``pytest -s`` to see the rendered series next
to the timings.  EXPERIMENTS.md records reference output.

All benchmarks report through pytest-benchmark, so one
``--benchmark-json=out.json`` run produces a single result file: figure
benchmarks record their scale/seed, serving/batch/sweep benchmarks
additionally record their throughput, cache and speedup metrics in each
entry's ``extra_info``.  CI gates those metrics against the committed
floors in ``benchmarks/baselines/`` via ``benchmarks/check_regression.py``.
"""

import os

import pytest

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: Serving metrics copied into pytest-benchmark ``extra_info`` (and thus the
#: shared ``--benchmark-json`` output) when present in a stats dictionary.
SERVING_INFO_KEYS = (
    "n_pages_total",
    "k",
    "queries",
    "queries_per_second",
    "latency_seconds",
    "baseline_latency_seconds",
    "speedup_vs_full_rank",
    "cache_hit_rate",
    "cache_hits",
    "cache_misses",
    "cache_stale_evictions",
    "feedback_events",
    "flushes",
    "flush_committed",
    "flush_conflicts",
    "flush_retries",
    "flush_dead_letter_events",
    "flush_dropped_events",
)

#: Chaos metrics copied into ``extra_info`` for the chaos recovery
#: benchmark: recovery correctness gates plus the fault/degradation
#: accounting that explains a run.
CHAOS_INFO_KEYS = (
    "n_pages",
    "n_queries",
    "n_shards",
    "qps",
    "replayed_queries",
    "shed_queries",
    "degraded_serves",
    "degraded_serve_fraction",
    "degraded_serve_recovery_ratio",
    "load_sheds",
    "occ_conflicts",
    "occ_retries",
    "dead_letter_batches",
    "dead_letter_events",
    "recoveries",
    "recovery_seconds",
    "replayed_entries",
    "recovery_bit_identical",
    "clean_parity",
    "flush_committed",
    "flush_conflicts",
    "flush_retries",
    "flush_dropped_events",
)

#: Pool metrics copied into ``extra_info`` for the multi-tenant serving
#: pool benchmark: the machine-independent scaling ratio plus the OCC
#: invariant bits (organic conflicts, zero lost visits, backpressure) and
#: the accounting that explains them.
POOL_INFO_KEYS = (
    "tenants",
    "workers",
    "clients",
    "n_pages",
    "n_shards",
    "queries",
    "queries_per_second",
    "qps_single_worker",
    "pool_scaling_ratio",
    "pool_organic_conflict",
    "pool_zero_lost",
    "pool_backpressure_engaged",
    "lost_events",
    "organic_conflicts",
    "client_sent_events",
    "client_committed_events",
    "client_conflicts",
    "client_dead_letter_events",
    "worker_feedback_events",
    "worker_committed_events",
    "worker_dead_letter_events",
    "shared_committed_events",
    "shared_conflicts",
    "backpressure_events",
    "worker_restarts",
)

#: Dynamic ``extra_info`` key prefixes: per-shard throughput and the
#: telemetry end-of-run snapshot (shard count and span names vary per run,
#: so these are matched by prefix instead of being enumerated).
SERVING_INFO_PREFIXES = (
    "qps_shard_",
    "queries_shard_",
    "queries_tenant_",
    "telemetry_",
)


@pytest.fixture(scope="session")
def bench_scale():
    """Scale level for all benchmark runs (smoke unless overridden)."""
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_seed():
    """Root seed for all benchmark runs."""
    return BENCH_SEED


def run_experiment_once(benchmark, driver, scale, seed, **kwargs):
    """Run an experiment driver exactly once under pytest-benchmark timing."""
    result = benchmark.pedantic(
        lambda: driver(scale=scale, seed=seed, **kwargs), iterations=1, rounds=1
    )
    benchmark.extra_info.update({"scale": scale, "seed": seed})
    print()
    print(result.render())
    return result


def run_report_once(benchmark, driver, info_keys, **kwargs):
    """Run a metrics-dict benchmark driver once; emit its metrics.

    ``driver`` must return a flat metrics dictionary; the keys named in
    ``info_keys`` land in the benchmark entry's ``extra_info`` so they
    appear in the shared ``--benchmark-json`` output, and are printed for
    ``pytest -s`` runs.
    """
    report = benchmark.pedantic(lambda: driver(**kwargs), iterations=1, rounds=1)
    selected = {key: report[key] for key in info_keys if key in report}
    for key in sorted(report):
        if key.startswith(SERVING_INFO_PREFIXES):
            selected[key] = report[key]
    benchmark.extra_info.update(selected)
    print()
    for key in selected:
        print("%s: %s" % (key, selected[key]))
    return report


def run_serving_once(benchmark, driver, **kwargs):
    """Run a serving benchmark once; emit its metrics into the JSON output.

    ``driver`` must return a flat metrics dictionary (as
    :func:`repro.serving.bench.run_serving_benchmark` does); the serving
    keys land in the benchmark entry's ``extra_info`` so queries/sec and
    cache hit rate appear in the same ``--benchmark-json`` file as the
    figure benchmarks.
    """
    return run_report_once(benchmark, driver, SERVING_INFO_KEYS, **kwargs)
