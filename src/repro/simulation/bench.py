"""Offline simulation throughput benchmark: batch engine vs replicate loop.

Measures simulated page-days per second for the vectorized
:class:`~repro.simulation.batch.BatchSimulator` against the looped
sequential :class:`~repro.simulation.engine.Simulator`, running the *same*
measurement through both engines (same community, policy, windows and
``spawn_rngs`` seed family).  Because replicate throughput of the sequential
loop is independent of the replicate count (the loop is embarrassingly
serial), the baseline may time fewer replicates than the batch run and still
report an honest per-replicate rate.

The report also verifies the parity contract: in fluid mode the batch
engine's per-replicate QPC values must be bit-identical to the sequential
engine's for the shared seed family.

Used by the ``sim-bench`` CLI subcommand and ``benchmarks/test_bench_batch.py``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.community.config import CommunityConfig, DEFAULT_COMMUNITY
from repro.core.kernels import get_backend
from repro.core.policy import RankPromotionPolicy, RECOMMENDED_POLICY
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import _run_replicates


def run_simulation_benchmark(
    community: Optional[CommunityConfig] = None,
    policy: Optional[RankPromotionPolicy] = None,
    replicates: int = 32,
    baseline_replicates: Optional[int] = None,
    warmup_days: int = 15,
    measure_days: int = 25,
    mode: str = "fluid",
    seed: int = 0,
    n_workers: Optional[int] = None,
    check_parity: bool = True,
    telemetry_window: Optional[int] = None,
    telemetry_out: Optional[str] = None,
) -> Dict[str, float]:
    """Time batch vs sequential replicate runs; return a flat metrics dict.

    Page-days/sec counts every simulated day of every replicate over the
    full run (construction, warm-up, measurement and observers included —
    the same end-to-end work ``measure_qpc`` performs).

    Args:
        community: community to simulate (the paper's default by default).
        policy: rank promotion policy (the paper's recommendation by default).
        replicates: replicate count for the batch engine (the ``R`` axis).
        baseline_replicates: replicates timed through the sequential loop;
            defaults to ``min(replicates, 8)`` to keep the baseline cheap.
        warmup_days, measure_days, mode, seed: simulation window settings.
        n_workers: replicate blocks the batch engine steps on threads
            (``None`` auto-sizes).
        check_parity: verify bit-identical per-replicate QPC between the two
            engines over the baseline replicates (fluid parity contract).

    The report's ``kernel_backend`` entry names the backend that actually
    ran (after any unavailable-backend fallback), so benchmark JSON and the
    regression-gate floors are backend-tagged.
    """
    kernels = get_backend()
    kernels.warmup()  # JIT backends compile outside the timed regions
    community = community or DEFAULT_COMMUNITY
    policy = policy or RECOMMENDED_POLICY
    if baseline_replicates is None:
        baseline_replicates = min(replicates, 8)
    baseline_replicates = min(baseline_replicates, replicates)
    config = SimulationConfig(
        warmup_days=warmup_days,
        measure_days=measure_days,
        mode=mode,
        snapshot_awareness=False,
    )
    days_total = warmup_days + measure_days

    started = time.perf_counter()
    sequential = _run_replicates(
        community, policy, config,
        repetitions=baseline_replicates, seed=seed, engine="sequential",
    )
    sequential_seconds = time.perf_counter() - started

    recorder = None
    if telemetry_window is not None or telemetry_out is not None:
        from repro.telemetry import TelemetryRecorder

        # The window is event-driven and sim-bench's events are days, so
        # the requested window is honored as-is (days per row).
        recorder = TelemetryRecorder(
            window=telemetry_window or days_total,
            out=telemetry_out,
            label="sim",
        )
        recorder.install_kernel_spans()

    started = time.perf_counter()
    try:
        batch = _run_replicates(
            community, policy, config,
            repetitions=replicates, seed=seed, engine="batch",
            n_workers=n_workers, telemetry=recorder,
        )
    finally:
        if recorder is not None:
            recorder.close()
    batch_seconds = time.perf_counter() - started

    page_days_sequential = baseline_replicates * days_total * community.n_pages
    page_days_batch = replicates * days_total * community.n_pages
    rate_sequential = page_days_sequential / sequential_seconds
    rate_batch = page_days_batch / batch_seconds

    # spawn_rngs(seed, R) hands replicate r the same generator for every R,
    # so the first `baseline_replicates` rows of the batch run replay the
    # sequential runs exactly.
    parity = all(
        s.qpc_absolute == b.qpc_absolute
        for s, b in zip(sequential, batch[:baseline_replicates], strict=True)
    ) if check_parity else None

    report: Dict[str, float] = {
        "kernel_backend": kernels.name,
        "n_pages": float(community.n_pages),
        "replicates": float(replicates),
        "baseline_replicates": float(baseline_replicates),
        "days_total": float(days_total),
        "mode_fluid": 1.0 if mode == "fluid" else 0.0,
        "batch_seconds": batch_seconds,
        "sequential_seconds": sequential_seconds,
        "pagedays_per_second_batch": rate_batch,
        "pagedays_per_second_sequential": rate_sequential,
        "speedup_batch_vs_sequential": rate_batch / rate_sequential,
        "qpc_normalized_mean": float(
            sum(r.qpc_normalized for r in batch) / len(batch)
        ),
    }
    if parity is not None:
        report["parity_bit_identical"] = 1.0 if parity else 0.0
    if recorder is not None:
        report.update(recorder.snapshot())
    return report


__all__ = ["run_simulation_benchmark"]
