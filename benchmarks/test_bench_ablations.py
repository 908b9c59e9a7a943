"""Ablation benchmarks beyond the paper's figures.

These exercise the design choices DESIGN.md calls out: the promotion rule
spectrum (none / uniform / selective / age-based / popularity-threshold), the
related-work baseline rankers, and the graph-backed popularity substrate.
"""

from repro.baselines import AgeWeightedRanker, DerivativeForecastRanker
from repro.community import CommunityConfig
from repro.core.policy import RankPromotionPolicy
from repro.core.promotion import (
    AgeThresholdPromotionRule,
    PopularityThresholdPromotionRule,
    SelectivePromotionRule,
)
from repro.core.rankers import PopularityRanker, RandomizedPromotionRanker
from repro.simulation import SimulationConfig, Simulator
from repro.webgraph.evolution import EvolvingWebGraph, GraphCommunitySimulator

COMMUNITY = CommunityConfig(
    n_pages=800, n_users=80, monitored_fraction=0.25,
    visits_per_user_per_day=1.0, expected_lifetime_days=100.0,
)
CONFIG = SimulationConfig(warmup_days=300, measure_days=400, mode="stochastic")


def _qpc_for_ranker(ranker, seed=0):
    simulator = Simulator(COMMUNITY, ranker, CONFIG.with_seed(seed))
    return simulator.run().qpc_normalized


def test_bench_promotion_rule_spectrum(benchmark):
    """Compare promotion rules under the same merge parameters."""
    rules = {
        "selective": SelectivePromotionRule(),
        "age<60d": AgeThresholdPromotionRule(max_age_days=60.0),
        "popularity<0.01": PopularityThresholdPromotionRule(threshold=0.01),
    }

    def run():
        return {
            name: _qpc_for_ranker(RandomizedPromotionRanker(rule, k=1, r=0.2), seed=5)
            for name, rule in rules.items()
        }

    values = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for name, value in values.items():
        print("  promotion rule %-18s normalized QPC %.4f" % (name, value))
    for value in values.values():
        assert 0.0 < value <= 1.05


def test_bench_related_work_baselines(benchmark):
    """Age-weighted and derivative-forecast baselines vs plain popularity."""

    def run():
        results = {
            "popularity": _qpc_for_ranker(PopularityRanker(), seed=9),
            "age-weighted": _qpc_for_ranker(AgeWeightedRanker(tau_days=60.0), seed=9),
        }
        simulator = Simulator(
            COMMUNITY, DerivativeForecastRanker(horizon_days=60.0),
            CONFIG.with_seed(9), history_length=14,
        )
        results["derivative-forecast"] = simulator.run().qpc_normalized
        return results

    values = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for name, value in values.items():
        print("  baseline %-20s normalized QPC %.4f" % (name, value))
    for value in values.values():
        assert 0.0 < value <= 1.05


def test_bench_graph_substrate(benchmark):
    """Randomized promotion on the link-based (graph) popularity substrate."""
    community = CommunityConfig(
        n_pages=300, n_users=60, monitored_fraction=0.2,
        expected_lifetime_days=80.0,
    )

    def run():
        outcomes = {}
        for name, ranker in (
            ("popularity", PopularityRanker()),
            ("selective r=0.2", RandomizedPromotionRanker(SelectivePromotionRule(), k=1, r=0.2)),
        ):
            simulator = GraphCommunitySimulator(
                community, ranker, seed=3,
                graph=EvolvingWebGraph(n=community.n_pages, links_per_day=40.0),
            )
            outcomes[name] = simulator.run(warmup_days=80, measure_days=120)
        return outcomes

    outcomes = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    for name, outcome in outcomes.items():
        print("  graph substrate %-18s normalized QPC %.4f (links=%d)"
              % (name, outcome["qpc_normalized"], outcome["links"]))
    for outcome in outcomes.values():
        assert outcome["qpc_normalized"] > 0.0


def test_bench_simulator_throughput(benchmark):
    """Raw simulator stepping rate at the paper's default community size."""
    paper = CommunityConfig()
    simulator = Simulator(
        paper, RankPromotionPolicy("selective", 1, 0.1).build_ranker(),
        SimulationConfig(warmup_days=1, measure_days=1, seed=0),
    )

    def run_steps():
        for _ in range(30):
            simulator.step()

    benchmark(run_steps)
