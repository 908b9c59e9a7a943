"""Chaos benchmark: replay a recorded trace under a scripted fault plan.

``python -m repro chaos-bench`` (and ``benchmarks/test_bench_chaos.py``)
drive :func:`run_chaos_benchmark`: one recorded query trace is replayed
twice against identically-seeded routers — once fault-free to establish
the reference popularity digests, once under the fault plan with the
robustness layer armed — and the run reports what the faults cost and
what recovery restored:

* ``recovery_bit_identical`` — every crashed shard's checkpoint + journal
  replay reproduced the exact pre-crash state digest;
* ``clean_parity`` — the first crash's recovered state also matches the
  fault-free run's digest at the same commit point (the stronger,
  external parity check);
* ``degraded_serve_recovery_ratio`` — of the queries that hit a downed
  shard, the fraction answered with a within-budget stale page instead of
  being shed (the CI-gated availability floor);
* dead-letter, conflict/retry, downtime and recovery-time counters.

Determinism: the trace pins the stream randomness, the fault plan pins
the fault schedule in query indices, and the backoff jitter draws from a
seeded generator — two runs with equal arguments produce equal reports
(timings aside).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.core.policy import RECOMMENDED_POLICY, RankPromotionPolicy
from repro.robustness.faults import FaultEvent, FaultPlan, LoadShedError
from repro.robustness.journal import state_digest
from repro.robustness.occ import FlushReport, RetryPolicy
from repro.serving.bench import seed_steady_state_awareness
from repro.serving.config import ServingConfig, build_router
from repro.serving.router import ShardedRouter
from repro.serving.workload import RecordedTrace, StreamingWorkload, WorkloadConfig, record_trace
from repro.utils.rng import derive_seed
from repro.visits.attention import AttentionModel, PowerLawAttention


def pinned_fault_plan(
    n_queries: int, n_shards: int, flush_every: int = 64
) -> FaultPlan:
    """The repository's reference chaos schedule for an ``n_queries`` run.

    One mid-run crash (the first fault, so the recovered state can be
    checked against the fault-free reference), then an OCC conflict burst,
    a short stall, and a late cache poisoning.  Requires two shards so the
    crash hits a shard other than the conflict target.
    """
    if n_queries < 8 * flush_every:
        raise ValueError(
            "pinned plan needs n_queries >= %d (8 flush windows), got %d"
            % (8 * flush_every, n_queries)
        )
    if n_shards < 2:
        raise ValueError("pinned plan needs >= 2 shards, got %d" % n_shards)
    crash_at = (3 * n_queries // 8 // flush_every) * flush_every + flush_every // 2
    return FaultPlan(
        events=(
            FaultEvent(
                kind="crash", at_query=crash_at, shard=1, duration=2 * flush_every
            ),
            FaultEvent(kind="conflict", at_query=5 * n_queries // 8, shard=0, count=2),
            FaultEvent(
                kind="stall",
                at_query=6 * n_queries // 8,
                shard=0,
                duration=flush_every // 2,
            ),
            FaultEvent(kind="poison", at_query=7 * n_queries // 8, shard=0),
        )
    )


def replay_chaos_trace(
    router: ShardedRouter,
    trace: RecordedTrace,
    k: int,
    limit: Optional[int] = None,
    attention: Optional[AttentionModel] = None,
    final_flush: bool = True,
) -> Dict[str, float]:
    """Replay (a prefix of) a recorded trace, surviving load sheds.

    The replay half of :func:`~repro.simulation.replay.replay_trace`, with
    two chaos-specific differences: a
    :class:`~repro.robustness.faults.LoadShedError` from a downed shard is
    counted and the stream continues (a shed query still advances the
    flush/day cadence — its trace slot is consumed), and ``final_flush``
    can be disabled so a reference prefix stops at the last boundary
    commit, the state a crash recovery restores to.
    """
    attention = attention or PowerLawAttention()
    click_cdf = np.cumsum(attention.visit_shares(k))
    total = trace.n_queries if limit is None else min(int(limit), trace.n_queries)
    query_ids = np.asarray(trace.query_ids)
    coin_u = np.asarray(trace.coin_u)
    position_u = np.asarray(trace.position_u)
    report = FlushReport()
    sheds = 0
    started = time.perf_counter()
    for i in range(total):
        query_id = int(query_ids[i])
        try:
            page = router.serve(query_id, k)
        except LoadShedError:
            sheds += 1
            page = None
        if page is not None and coin_u[i] < trace.feedback_rate:
            position = int(np.searchsorted(click_cdf, position_u[i], side="right"))
            position = min(position, page.size - 1)
            router.submit_feedback(query_id, int(page[position]))
        served = i + 1
        if served % trace.flush_every == 0:
            report.merge(router.flush_feedback())
        if trace.day_every is not None and served % trace.day_every == 0:
            router.advance_day()
    if final_flush:
        report.merge(router.flush_feedback())
        if router.faults.enabled:
            # One more flush drains a batch the reorder fault deferred at
            # the final boundary (otherwise it would be silently lost).
            report.merge(router.flush_feedback())
    elapsed = time.perf_counter() - started
    metrics = report.as_dict()
    metrics["replayed_queries"] = float(total)
    metrics["shed_queries"] = float(sheds)
    metrics["elapsed_seconds"] = elapsed
    metrics["qps"] = total / elapsed if elapsed > 0 else 0.0
    return metrics


def run_chaos_benchmark(
    n_pages: int = 20_000,
    n_queries: int = 2_000,
    k: int = 20,
    n_shards: int = 4,
    cache_capacity: Optional[int] = 64,
    staleness_budget: int = 4,
    feedback_rate: float = 0.2,
    zipf_exponent: float = 1.1,
    flush_every: int = 64,
    day_every: Optional[int] = -1,
    mode: str = "fluid",
    policy: RankPromotionPolicy = RECOMMENDED_POLICY,
    plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    degradation=None,
    seed: int = 0,
    telemetry_window: Optional[int] = None,
    telemetry_out: Optional[str] = None,
) -> Dict[str, float]:
    """One chaos run: trace under faults vs the fault-free reference.

    ``plan=None`` uses :func:`pinned_fault_plan`; ``day_every=-1`` picks
    one lifecycle day per quarter of the stream (``None`` disables days).
    Retry backoff is *scheduled but not slept* — the report's
    ``flush_backoff_seconds`` is the waiting a real deployment would have
    done, without the bench paying it in wall-clock.

    Returns a flat metrics dictionary (see the module docstring for the
    headline keys); ``telemetry_window``/``telemetry_out`` additionally
    fold a windowed telemetry snapshot in under ``telemetry_*`` keys.
    """
    if day_every == -1:
        day_every = max(flush_every, n_queries // 4)
    if plan is None:
        plan = pinned_fault_plan(n_queries, n_shards, flush_every)
    config = ServingConfig(
        n_pages=n_pages,
        n_shards=n_shards,
        mode=mode,
        cache_capacity=cache_capacity,
        staleness_budget=staleness_budget,
        seed=seed,
    )

    def fresh_router() -> ShardedRouter:
        router = build_router(config, policy=policy)
        seed_steady_state_awareness(router, rng=derive_seed(seed, "serving-warm"))
        return router

    workload = StreamingWorkload(
        WorkloadConfig(
            n_distinct_queries=max(64, n_queries // 4),
            zipf_exponent=zipf_exponent,
            k=k,
            feedback_rate=feedback_rate,
            flush_every=flush_every,
        ),
        seed=derive_seed(seed, "serving-stream"),
    )
    trace = record_trace(workload, n_queries, day_every=day_every)

    # Fault-free reference digests at the first crash's recovery point: the
    # last commit boundary strictly before the crash query.  Up to that
    # point the faulted run is byte-for-byte the clean run (the pinned plan
    # schedules the crash as its first fault), so the recovered state must
    # match these digests exactly.
    crashes = sorted(
        (event for event in plan.events if event.kind == "crash"),
        key=lambda event: event.at_query,
    )
    clean_digests: Dict[int, int] = {}
    if crashes:
        first_crash = crashes[0]
        before = first_crash.at_query - 1
        prefix = (before // flush_every) * flush_every
        if day_every is not None:
            # A lifecycle day is a journaled mutation too; recovery restores
            # through the last day boundary as well as the last flush.
            prefix = max(prefix, (before // day_every) * day_every)
        reference = fresh_router()
        replay_chaos_trace(reference, trace, k, limit=prefix, final_flush=False)
        clean_digests[first_crash.shard] = state_digest(
            reference.engines[first_crash.shard].state,
            reference.engines[first_crash.shard].day,
        )

    router = fresh_router()
    recorder = None
    if telemetry_window is not None or telemetry_out is not None:
        from repro.telemetry import DEFAULT_WINDOW, NULL_RECORDER, TelemetryRecorder

        recorder = TelemetryRecorder(
            window=telemetry_window or DEFAULT_WINDOW,
            out=telemetry_out,
            n_shards=n_shards,
            label="chaos",
        )
        router.attach_telemetry(recorder)
    router.enable_robustness(
        plan,
        retry=retry,
        degradation=degradation,
        seed=derive_seed(seed, "chaos-backoff"),
        sleep=lambda _seconds: None,
    )
    try:
        with_recorder = recorder if recorder is not None else _NullContext()
        with with_recorder:
            replay = replay_chaos_trace(router, trace, k)
    finally:
        if recorder is not None:
            from repro.telemetry import NULL_RECORDER

            router.attach_telemetry(NULL_RECORDER)

    report: Dict[str, float] = {
        "mode": mode,
        "n_pages": float(n_pages),
        "n_queries": float(n_queries),
        "n_shards": float(n_shards),
        "k": float(k),
        "fault_events": float(len(plan)),
    }
    report.update(replay)
    stats = router.stats()
    for key in (
        "occ_conflicts",
        "occ_retries",
        "occ_backoff_seconds",
        "dead_letter_batches",
        "dead_letter_events",
        "degraded_serves",
        "load_sheds",
        "recoveries",
        "recovery_seconds",
        "replayed_entries",
        "recovered_bit_identical",
    ):
        report[key] = stats[key]
    for key, value in stats.items():
        if key.startswith("fault_"):
            report[key] = value
    report["recovery_bit_identical"] = stats["recovered_bit_identical"]
    degraded = report["degraded_serves"]
    shed = report["load_sheds"]
    report["degraded_serve_fraction"] = degraded / n_queries if n_queries else 0.0
    report["degraded_serve_recovery_ratio"] = (
        degraded / (degraded + shed) if (degraded + shed) > 0 else 1.0
    )
    parity = 1.0
    for shard, expected in clean_digests.items():
        recovered = router.robustness.supervisors[shard].last_recovery_digest
        if recovered is None or recovered != expected:
            parity = 0.0
    report["clean_parity"] = parity
    if recorder is not None:
        report.update(recorder.snapshot())
    return report


class _NullContext:
    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


__all__ = ["pinned_fault_plan", "replay_chaos_trace", "run_chaos_benchmark"]
