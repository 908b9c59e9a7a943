"""Integration tests spanning multiple subsystems.

These exercise the headline claims of the paper end to end on scaled-down
communities: randomized rank promotion discovers new high-quality pages
faster (TBP) and does not hurt — typically helps — amortized result quality
(QPC), and the analytical model agrees with the simulator about the
direction of every effect.
"""

import pytest

from repro.analysis import RankingSpec, solve_model
from repro.community import CommunityConfig
from repro.core.policy import RankPromotionPolicy
from repro.simulation import SimulationConfig, measure_qpc, measure_tbp, popularity_trajectory

# A community small enough to simulate quickly but large enough that the
# entrenchment effect is visible: scarce visits relative to pages.
COMMUNITY = CommunityConfig(
    n_pages=1_000,
    n_users=100,
    monitored_fraction=0.2,
    visits_per_user_per_day=1.0,
    expected_lifetime_days=120.0,
)
SIM_CONFIG = SimulationConfig(warmup_days=360, measure_days=600, mode="stochastic")


@pytest.fixture(scope="module")
def qpc_by_policy():
    policies = {
        "none": RankPromotionPolicy("none", 1, 0.0),
        "selective": RankPromotionPolicy("selective", 1, 0.2),
    }
    return {
        name: measure_qpc(COMMUNITY, policy, SIM_CONFIG, repetitions=3, seed=101)
        for name, policy in policies.items()
    }


class TestHeadlineClaims:
    def test_simulated_promotion_does_not_hurt_qpc(self, qpc_by_policy):
        none = qpc_by_policy["none"]["qpc_normalized"]
        selective = qpc_by_policy["selective"]["qpc_normalized"]
        # Promotion should help; allow a small noise margin so the test stays
        # robust to seed effects while still catching regressions where
        # promotion collapses QPC.
        assert selective > none * 0.9

    def test_simulated_tbp_improves_with_promotion(self):
        config = SimulationConfig(warmup_days=240, measure_days=60,
                                  probe_horizon_days=700)
        tbp_none = measure_tbp(
            COMMUNITY, RankPromotionPolicy("none", 1, 0.0), probe_quality=0.4,
            config=config, repetitions=3, seed=7,
        )
        tbp_selective = measure_tbp(
            COMMUNITY, RankPromotionPolicy("selective", 1, 0.3), probe_quality=0.4,
            config=config, repetitions=3, seed=7,
        )
        # Without promotion the probe typically never becomes popular within
        # the horizon (censored at 700 days); with selective promotion it
        # should cross well before that.
        assert tbp_selective["tbp_days"] < tbp_none["tbp_days"]
        assert tbp_selective["censored_fraction"] < 1.0

    def test_probe_trajectory_rises_faster_with_promotion(self):
        config = SimulationConfig(warmup_days=240, measure_days=60)
        horizon = 240
        with_promotion = popularity_trajectory(
            COMMUNITY, RankPromotionPolicy("selective", 1, 0.3), probe_quality=0.4,
            horizon_days=horizon, config=config, repetitions=3, seed=13,
        )
        without = popularity_trajectory(
            COMMUNITY, RankPromotionPolicy("none", 1, 0.0), probe_quality=0.4,
            horizon_days=horizon, config=config, repetitions=3, seed=13,
        )
        # Compare the area under the popularity curve (exploration benefit).
        assert with_promotion.sum() > without.sum()


class TestAnalysisSimulationAgreement:
    def test_both_paths_agree_promotion_helps(self, qpc_by_policy):
        analysis_none = solve_model(COMMUNITY, RankingSpec.nonrandomized(),
                                    quality_groups=32, seed=0)
        analysis_selective = solve_model(COMMUNITY, RankingSpec.selective(r=0.2, k=1),
                                         quality_groups=32, seed=0)
        analysis_gain = (
            analysis_selective.qpc_normalized() - analysis_none.qpc_normalized()
        )
        simulation_gain = (
            qpc_by_policy["selective"]["qpc_normalized"]
            - qpc_by_policy["none"]["qpc_normalized"]
        )
        assert analysis_gain > 0
        assert simulation_gain > -0.05

    def test_analysis_tbp_ordering_matches_paper(self):
        none = solve_model(COMMUNITY, RankingSpec.nonrandomized(), quality_groups=32, seed=0)
        selective = solve_model(COMMUNITY, RankingSpec.selective(r=0.1, k=1),
                                quality_groups=32, seed=0)
        uniform = solve_model(COMMUNITY, RankingSpec.uniform(r=0.1, k=1),
                              quality_groups=32, seed=0)
        tbp_none = none.tbp(0.4)
        tbp_uniform = uniform.tbp(0.4)
        tbp_selective = selective.tbp(0.4)
        # Paper, Figure 4: selective < uniform < none.
        assert tbp_selective < tbp_uniform < tbp_none

    def test_k2_protects_top_slot_with_small_cost(self):
        k1 = solve_model(COMMUNITY, RankingSpec.selective(r=0.1, k=1),
                         quality_groups=32, seed=0)
        k2 = solve_model(COMMUNITY, RankingSpec.selective(r=0.1, k=2),
                         quality_groups=32, seed=0)
        # Protecting the top result should change QPC only modestly.
        assert abs(k1.qpc_normalized() - k2.qpc_normalized()) < 0.15


class TestEndToEndPublicApi:
    def test_quickstart_flow(self):
        # The README quickstart, condensed: build a community, compare the
        # recommended policy against deterministic ranking.
        from repro import RECOMMENDED_POLICY, compare_policies

        community = CommunityConfig(
            n_pages=300, n_users=60, monitored_fraction=0.25,
            expected_lifetime_days=60.0,
        )
        config = SimulationConfig(warmup_days=120, measure_days=120)
        outcome = compare_policies(
            community,
            {"deterministic": RankPromotionPolicy("none", 1, 0.0),
             "recommended": RECOMMENDED_POLICY},
            config,
            seed=3,
        )
        assert set(outcome) == {"deterministic", "recommended"}
        for values in outcome.values():
            assert 0.0 < values["qpc_normalized"] <= 1.1
