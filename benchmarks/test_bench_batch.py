"""Batch simulation engine throughput: page-days/sec vs the replicate loop.

Runs the same fluid-mode measurement on the paper's default community
through the vectorized :class:`~repro.simulation.batch.BatchSimulator` and
the looped sequential :class:`~repro.simulation.engine.Simulator`, at
R in {8, 32, 128} replicates, and asserts the parity contract (per-replicate
QPC bit-identical between the engines at equal seeds).

Speedup notes, measured on the 1-core reference container: the batch engine
sustains ~3.5-4x the sequential page-days/sec at R = 32 on the default
community (n = 10 000).  The gap to the ideal is bounded by work both
engines share bit-for-bit at C speed — the per-replicate promotion-pool
shuffle, the awareness `pow`, and the parity-mandated per-replicate RNG
draws — plus the batched argsort; with zero batching overhead the ceiling
on this hardware is ~8.5x.  The assertion below uses a conservative floor
so CI noise cannot flake it; the measured speedup is exported in
``extra_info`` (and printed) for tracking.
"""

import pytest

from repro.community.config import DEFAULT_COMMUNITY
from repro.simulation.bench import run_simulation_benchmark

from conftest import BENCH_SCALE, BENCH_SEED, run_report_once

#: Simulated days (warm-up, measurement) per scale level.
BATCH_BENCH_DAYS = {
    "smoke": (10, 15),
    "fast": (25, 50),
    "paper": (60, 120),
}

#: Metrics copied into pytest-benchmark ``extra_info`` for the JSON output.
BATCH_INFO_KEYS = (
    "n_pages",
    "replicates",
    "baseline_replicates",
    "days_total",
    "pagedays_per_second_batch",
    "pagedays_per_second_sequential",
    "speedup_batch_vs_sequential",
    "parity_bit_identical",
)

#: Conservative speedup floor asserted at R = 32 (see module docstring).
MIN_SPEEDUP_AT_32 = 2.0


def _days():
    return BATCH_BENCH_DAYS.get(BENCH_SCALE, BATCH_BENCH_DAYS["smoke"])


@pytest.mark.parametrize("replicates", [8, 32, 128])
def test_bench_batch_pagedays(benchmark, replicates):
    """Throughput and parity of the batch engine at each replicate count."""
    warmup_days, measure_days = _days()
    report = run_report_once(
        benchmark,
        run_simulation_benchmark,
        BATCH_INFO_KEYS,
        community=DEFAULT_COMMUNITY,
        replicates=replicates,
        warmup_days=warmup_days,
        measure_days=measure_days,
        mode="fluid",
        seed=BENCH_SEED,
        # Pin single-process: run_batch(n_workers=None) now auto-shards from
        # os.cpu_count(), which would make the gated speedup ratio depend on
        # the runner's core count instead of the engine's vectorization.
        n_workers=1,
    )

    assert report["parity_bit_identical"] == 1.0
    assert report["speedup_batch_vs_sequential"] > 1.0
    if replicates == 32:
        assert report["speedup_batch_vs_sequential"] >= MIN_SPEEDUP_AT_32
