"""Benchmark: lockstep serving-replay sweep vs R independent replays.

Replays one recorded query stream against a grid of serving variants
(page length k, randomization degree r, cache staleness budget, shard
count) through :class:`~repro.serving.sweep.ServingSweep`, and against the
same variants one at a time through the standalone
:func:`~repro.simulation.replay.replay_trace` loop.  Asserts the headline
contract of the sweep engine: **bit-identical per-variant results** (pages,
clicks, cache counters, final popularity state) at a replayed-query
throughput of at least 3x the independent replays at R = 32 variants on
the smoke workload.

The speedup is a same-core, same-process comparison (``n_workers=1``;
construction included on both sides), so it is stable across CI hosts; the
measured value is exported in ``extra_info`` and gated by
``benchmarks/check_regression.py`` against ``benchmarks/baselines``.
"""

import pytest

from repro.serving.sweep import run_sweep_benchmark, variant_grid

from conftest import BENCH_SCALE, BENCH_SEED, run_report_once

#: (n_pages, n_queries) per scale level.
SWEEP_BENCH_SIZES = {
    "smoke": (2_000, 2_400),
    "fast": (5_000, 6_000),
    "paper": (20_000, 12_000),
}

#: Metrics copied into pytest-benchmark ``extra_info`` for the JSON output.
SWEEP_INFO_KEYS = (
    "n_pages",
    "queries",
    "replicates",
    "sweep_seconds",
    "independent_seconds",
    "queries_per_second_sweep",
    "queries_per_second_independent",
    "speedup_sweep_vs_independent",
    "cache_hit_rate_mean",
    "feedback_events_total",
    "parity_bit_identical",
)

#: Speedup floor asserted at R = 32 (the PR's acceptance bar; the CI gate
#: additionally enforces it against the committed baseline reference).
MIN_SPEEDUP_AT_32 = 3.0


def _sizes():
    return SWEEP_BENCH_SIZES.get(BENCH_SCALE, SWEEP_BENCH_SIZES["smoke"])


def _grid(replicates):
    if replicates == 8:
        return variant_grid(
            ks=(10, 20), rs=(0.0, 0.1), staleness_budgets=(0, 4),
            shard_counts=(1,),
        )
    assert replicates == 32
    return variant_grid()  # 2 ks x 4 rs x 2 budgets x 2 shard counts


@pytest.mark.parametrize("replicates", [8, 32])
def test_bench_sweep_lockstep(benchmark, replicates):
    """Throughput and bit-parity of the sweep at each variant count."""
    n_pages, n_queries = _sizes()
    variants = _grid(replicates)
    assert len(variants) == replicates
    report = run_report_once(
        benchmark,
        run_sweep_benchmark,
        SWEEP_INFO_KEYS,
        n_pages=n_pages,
        n_queries=n_queries,
        variants=variants,
        seed=BENCH_SEED,
        n_workers=1,
    )

    # Bit-identical per-variant results are a hard requirement, not a perf
    # target: any drift between the lockstep engine and the standalone
    # replay fails the bench outright.
    assert report["parity_bit_identical"] == 1.0
    assert report["replicates"] == float(replicates)
    assert report["speedup_sweep_vs_independent"] > 1.0
    if replicates == 32:
        assert report["speedup_sweep_vs_independent"] >= MIN_SPEEDUP_AT_32
