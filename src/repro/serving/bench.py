"""Serving benchmark driver: queries/sec, cache hit rate, and the
full-re-rank baseline.

Used both by ``python -m repro serve-bench`` and by
``benchmarks/test_bench_serving.py``.  The run builds a sharded router over
a synthetic steady-state community, drives a Zipfian query stream with
feedback through it, and compares the measured per-query latency against
the offline baseline — one full :meth:`Ranker.rank` call per query, which
is what serving through the day-stepped simulator machinery would cost.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from repro.community.config import CommunityConfig, DEFAULT_COMMUNITY
from repro.core.kernels import get_backend
from repro.core.policy import RECOMMENDED_POLICY, RankPromotionPolicy
from repro.core.rankers_context import RankingContext
from repro.serving.config import ServingConfig, build_router
from repro.serving.router import ShardedRouter
from repro.serving.workload import StreamingWorkload, WorkloadConfig, run_stream
from repro.utils.rng import RandomSource, as_rng, derive_seed


def sample_steady_awareness(
    n: int, monitored_population: int, generator: np.random.Generator
) -> np.ndarray:
    """Draw a steady-state-like awareness profile for ``n`` pages.

    Skips the simulator warm-up: awareness counts are drawn from a
    squared-uniform (so most pages sit low), and roughly a third of the
    pages are kept at exactly zero awareness so the selective promotion
    pool is non-trivial — the regime the paper's steady state lives in.
    Both the serving run and the full-re-rank baseline use this one recipe
    so the speedup compares equal awareness regimes.
    """
    m = monitored_population
    aware = np.floor(generator.random(n) ** 2 * (m + 1))
    aware[generator.random(n) < 0.35] = 0.0
    return np.minimum(aware, m)


def seed_steady_state_awareness(router: ShardedRouter, rng: RandomSource = None) -> None:
    """Give every shard a steady-state-like awareness profile."""
    generator = as_rng(rng)
    for engine in router.engines:
        pool = engine.state.pool
        engine.state.set_awareness(
            sample_steady_awareness(pool.n, pool.monitored_population, generator)
        )


def time_full_rank_baseline(
    community: CommunityConfig,
    policy: RankPromotionPolicy,
    n_queries: int = 20,
    seed: RandomSource = None,
) -> float:
    """Mean seconds per query when every query re-ranks the full community."""
    generator = as_rng(seed)
    ranker = policy.build_ranker()
    from repro.community.page import PagePool

    pool = PagePool.from_config(community, generator)
    pool.aware_count[:] = sample_steady_awareness(
        pool.n, pool.monitored_population, generator
    )
    context = RankingContext.from_pool(pool, now=0.0)
    ranker.rank(context, generator)  # warm caches outside the timed region
    started = time.perf_counter()
    for _ in range(n_queries):
        ranker.rank(context, generator)
    return (time.perf_counter() - started) / n_queries


def run_serving_benchmark(
    n_pages: int = 20_000,
    n_queries: int = 2_000,
    k: int = 20,
    n_shards: int = 4,
    cache_capacity: Optional[int] = 64,
    staleness_budget: int = 4,
    feedback_rate: float = 0.2,
    zipf_exponent: float = 1.1,
    flush_every: int = 64,
    policy: RankPromotionPolicy = RECOMMENDED_POLICY,
    baseline_queries: int = 10,
    seed: int = 0,
    telemetry_window: Optional[int] = None,
    telemetry_out: Optional[str] = None,
) -> Dict[str, float]:
    """One end-to-end serving run plus the full-re-rank baseline.

    Returns a flat metrics dictionary: throughput (``queries_per_second``,
    plus per-shard ``qps_shard_<i>``), ``cache_hit_rate``, per-query
    latencies for both paths, and ``speedup_vs_full_rank``;
    ``kernel_backend`` names the kernel backend that ran.

    ``telemetry_window`` (an event count) enables streaming telemetry for
    the run: windowed metric rows go to the ``telemetry_out`` JSONL path
    (or stay in memory), and the end-of-run snapshot — including kernel
    timing spans — is folded into the report under ``telemetry_*`` keys.
    Both default off; the timed stream then runs with the null recorder.
    """
    kernels = get_backend()
    kernels.warmup()  # JIT backends compile outside the timed regions
    community = DEFAULT_COMMUNITY.scaled(n_pages)
    router = build_router(
        ServingConfig(
            n_pages=n_pages,
            n_shards=n_shards,
            cache_capacity=cache_capacity,
            staleness_budget=staleness_budget,
            seed=seed,
        ),
        policy=policy,
    )
    seed_steady_state_awareness(router, rng=derive_seed(seed, "serving-warm"))
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
    recorder = None
    if telemetry_window is not None or telemetry_out is not None:
        from repro.telemetry import DEFAULT_WINDOW, NULL_RECORDER, TelemetryRecorder

        recorder = TelemetryRecorder(
            window=telemetry_window or DEFAULT_WINDOW,
            out=telemetry_out,
            n_shards=n_shards,
            label="serve",
        )
        recorder.install_kernel_spans()
        router.attach_telemetry(recorder)
    try:
        stats = run_stream(router, n_queries, workload=workload)
    finally:
        if recorder is not None:
            recorder.close()
            router.attach_telemetry(NULL_RECORDER)

    baseline_latency = time_full_rank_baseline(
        community, policy, n_queries=baseline_queries, seed=derive_seed(seed, "baseline")
    )
    report = stats.as_dict()
    report.update(
        {
            "kernel_backend": kernels.name,
            "n_pages_total": float(router.n_pages),
            "k": float(k),
            "baseline_latency_seconds": baseline_latency,
            "speedup_vs_full_rank": (
                baseline_latency / stats.latency_seconds
                if stats.latency_seconds > 0
                else float("inf")
            ),
        }
    )
    if stats.elapsed_seconds > 0:
        for shard, count in enumerate(router.queries_per_shard):
            report["qps_shard_%d" % shard] = count / stats.elapsed_seconds
    if recorder is not None:
        report.update(recorder.snapshot())
    return report


def measure_telemetry_overhead(
    n_pages: int = 200_000,
    n_queries: int = 1_000,
    k: int = 20,
    n_shards: int = 4,
    cache_capacity: Optional[int] = 64,
    staleness_budget: int = 4,
    feedback_rate: float = 0.2,
    zipf_exponent: float = 1.1,
    flush_every: int = 64,
    policy: RankPromotionPolicy = RECOMMENDED_POLICY,
    telemetry_window: int = 1024,
    seed: int = 0,
    repetitions: int = 3,
) -> Dict[str, float]:
    """Cost of a live telemetry recorder on one pinned serving stream.

    Runs the identical query stream (same router construction, same
    workload seed) once with the null recorder and once with a live
    :class:`~repro.telemetry.TelemetryRecorder` (windowed rows in memory,
    kernel spans installed), interleaved and best-of-``repetitions`` with
    the garbage collector paused inside the timed regions — the same
    flake-resistant timing discipline the sweep benchmark uses.  The
    default shape is the gated serving benchmark's paper-plus scale
    (``test_bench_serving_topk[200000]``).

    ``telemetry_overhead_ratio`` is enabled-QPS over disabled-QPS (1.0 =
    free, 0.95 = 5% overhead); CI floors it in
    ``benchmarks/baselines/bench-floor.json``.
    ``overhead_us_per_query`` reports the same cost in absolute terms
    (microseconds of recording per served query — the number that stays
    meaningful when the serving path itself gets faster or slower).
    ``parity_bit_identical`` asserts the observability contract: the
    recorder only *reads*, so the router's end-of-run stats must be
    identical with it on or off.
    """
    import gc

    from repro.telemetry import NULL_RECORDER, TelemetryRecorder

    kernels = get_backend()
    kernels.warmup()  # JIT backends compile outside the timed regions
    config = ServingConfig(
        n_pages=n_pages,
        n_shards=n_shards,
        cache_capacity=cache_capacity,
        staleness_budget=staleness_budget,
        seed=seed,
    )

    def build() -> tuple:
        router = build_router(config, policy=policy)
        seed_steady_state_awareness(router, rng=derive_seed(seed, "serving-warm"))
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
        return router, workload

    best = {False: 0.0, True: 0.0}
    final_stats: Dict[bool, Dict[str, float]] = {}
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, int(repetitions))):
            for enabled in (False, True):
                router, workload = build()
                recorder = None
                if enabled:
                    recorder = TelemetryRecorder(
                        window=telemetry_window,
                        n_shards=n_shards,
                        label="overhead",
                    )
                    recorder.install_kernel_spans()
                    router.attach_telemetry(recorder)
                gc.collect()
                gc.disable()
                try:
                    stats = run_stream(router, n_queries, workload=workload)
                finally:
                    if gc_was_enabled:
                        gc.enable()
                    if recorder is not None:
                        recorder.close()
                        router.attach_telemetry(NULL_RECORDER)
                best[enabled] = max(best[enabled], stats.queries_per_second)
                final_stats[enabled] = dict(router.stats())
    finally:
        if gc_was_enabled:
            gc.enable()

    parity = final_stats[False] == final_stats[True]
    overhead_us = (
        (1.0 / best[True] - 1.0 / best[False]) * 1e6
        if best[True] > 0 and best[False] > 0
        else float("inf")
    )
    return {
        "kernel_backend": kernels.name,
        "n_pages": float(n_pages),
        "queries": float(n_queries),
        "telemetry_window": float(telemetry_window),
        "qps_disabled": best[False],
        "qps_enabled": best[True],
        "telemetry_overhead_ratio": (
            best[True] / best[False] if best[False] > 0 else float("inf")
        ),
        "overhead_us_per_query": overhead_us,
        "parity_bit_identical": 1.0 if parity else 0.0,
    }


__all__ = [
    "run_serving_benchmark",
    "measure_telemetry_overhead",
    "time_full_rank_baseline",
    "seed_steady_state_awareness",
    "sample_steady_awareness",
]
