"""Reproduction of "Shuffling a Stacked Deck: The Case for Partially
Randomized Ranking of Search Engine Results" (Pandey, Roy, Olston, Cho,
Chakrabarti — VLDB 2005).

The package implements the paper's randomized rank promotion scheme, the Web
community popularity-evolution model it is evaluated on, the analytical
steady-state model (Theorem 1 plus the fixed-point visit-rate solver), a
discrete-time simulator, the live-study sandbox of Appendix A, and one
experiment driver per figure of the paper.

Quickstart — normalized QPC without and with selective promotion::

    from repro import (
        CommunityConfig, RankPromotionPolicy, SimulationConfig, measure_qpc,
    )

    community = CommunityConfig(n_pages=2_000, n_users=200)
    config = SimulationConfig(warmup_days=200, measure_days=200, mode="stochastic")
    for rule in ("none", "selective"):
        policy = RankPromotionPolicy(rule=rule, k=1, r=0.1)
        result = measure_qpc(community, policy, config, repetitions=4, seed=0)
        print(rule, round(result["qpc_normalized"], 3))

In fluid mode most pages keep a fractional aware count below one user, so
the selective pool covers most of the community and its QPC is not the
paper's number; use stochastic mode to compare policies.

Serving-path quickstart — answer a stream of queries online instead of
re-ranking the whole community per simulated day.  The serving tier is
built from one frozen, JSON-round-trippable :class:`ServingConfig`::

    from repro import (
        ServingConfig, StreamingWorkload, WorkloadConfig,
        build_router, run_stream,
    )

    config = ServingConfig(
        n_pages=20_000, n_shards=4,
        cache_capacity=64, staleness_budget=4, seed=0,
    )
    router = build_router(config)
    workload = StreamingWorkload(WorkloadConfig(k=10, feedback_rate=0.2), seed=1)
    stats = run_stream(router, n_queries=10_000, workload=workload)
    print(stats.queries_per_second, stats.extra["cache_hit_rate"])

With ``workers``/``tenants``/``clients`` set, ``build_pool(config)``
hosts many tenant communities behind a process-per-shard pool whose
popularity arrays live in shared memory, so real concurrent writers race
feedback commits through the OCC path.  Or from the terminal::

    python -m repro serve-bench --pages 200000 --queries 5000 --shards 8
    python -m repro serve-bench --tenants 8 --clients 4 --workers 4
"""

from repro.community import (
    CommunityConfig,
    DEFAULT_COMMUNITY,
    Page,
    PagePool,
    PowerLawQualityDistribution,
    QualityDistribution,
)
from repro.core import (
    PopularityRanker,
    RandomizedPromotionRanker,
    RankingContext,
    RankPromotionPolicy,
    RECOMMENDED_POLICY,
    SelectivePromotionRule,
    UniformPromotionRule,
    randomized_merge,
)
from repro.analysis import RankingSpec, SolvedModel, SteadyStateSolver, solve_model
from repro.metrics import ideal_qpc, normalized_qpc, time_to_become_popular
from repro.simulation import (
    BatchSimulator,
    SimulationConfig,
    SimulationResult,
    Simulator,
    compare_policies,
    measure_qpc,
    measure_tbp,
    popularity_trajectory,
    run_batch,
)
from repro.serving import (
    PopularityState,
    RecordedTrace,
    ResultPageCache,
    ServingConfig,
    ServingEngine,
    ServingPool,
    ServingStats,
    ServingSweep,
    ShardedRouter,
    SharedPopularityState,
    StreamingWorkload,
    SweepResult,
    SweepVariant,
    WorkloadConfig,
    build_pool,
    build_router,
    record_trace,
    run_pool_benchmark,
    run_serving_benchmark,
    run_stream,
    run_sweep,
    run_sweep_benchmark,
    variant_grid,
)
from repro.visits import MixedSurfingModel, PowerLawAttention

__version__ = "1.3.0"

__all__ = [
    "CommunityConfig",
    "DEFAULT_COMMUNITY",
    "Page",
    "PagePool",
    "QualityDistribution",
    "PowerLawQualityDistribution",
    "RankPromotionPolicy",
    "RECOMMENDED_POLICY",
    "PopularityRanker",
    "RandomizedPromotionRanker",
    "SelectivePromotionRule",
    "UniformPromotionRule",
    "RankingContext",
    "randomized_merge",
    "RankingSpec",
    "SteadyStateSolver",
    "SolvedModel",
    "solve_model",
    "ideal_qpc",
    "normalized_qpc",
    "time_to_become_popular",
    "Simulator",
    "BatchSimulator",
    "run_batch",
    "SimulationConfig",
    "SimulationResult",
    "measure_qpc",
    "measure_tbp",
    "popularity_trajectory",
    "compare_policies",
    "PopularityState",
    "SharedPopularityState",
    "ServingEngine",
    "ResultPageCache",
    "ShardedRouter",
    "ServingConfig",
    "build_router",
    "build_pool",
    "ServingPool",
    "StreamingWorkload",
    "WorkloadConfig",
    "ServingStats",
    "run_stream",
    "run_serving_benchmark",
    "run_pool_benchmark",
    "RecordedTrace",
    "record_trace",
    "ServingSweep",
    "SweepResult",
    "SweepVariant",
    "variant_grid",
    "run_sweep",
    "run_sweep_benchmark",
    "MixedSurfingModel",
    "PowerLawAttention",
    "__version__",
]
