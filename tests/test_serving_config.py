"""Tests for the unified ServingConfig construction surface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, serving_config_from_args
from repro.community.config import DEFAULT_COMMUNITY
from repro.core.policy import RECOMMENDED_POLICY, RankPromotionPolicy
from repro.robustness.occ import RetryPolicy
from repro.serving.config import ServingConfig, build_router
from repro.serving.router import ShardedRouter
from repro.serving.workload import StreamingWorkload, run_stream


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.policy() == RankPromotionPolicy("selective", 1, 0.1)
        assert config.retry_policy() == RetryPolicy()
        assert config.community().n_pages == config.n_pages

    def test_json_round_trip(self):
        config = ServingConfig(
            n_pages=1_234,
            n_shards=3,
            mode="stochastic",
            policy_rule="uniform",
            policy_k=2,
            policy_r=0.25,
            cache_capacity=None,
            staleness_budget=7,
            seed=99,
            tenants=4,
            workers=2,
            clients=3,
            inbox_capacity=5,
            max_attempts=2,
            backoff_base=1e-3,
        )
        restored = ServingConfig.from_json(config.to_json())
        assert restored == config
        payload = json.loads(config.to_json())
        assert payload["n_pages"] == 1_234
        assert payload["cache_capacity"] is None

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ServingConfig fields"):
            ServingConfig.from_dict({"n_pages": 10, "warp_factor": 9})

    def test_replace_revalidates(self):
        config = ServingConfig(n_pages=100)
        assert config.replace(n_shards=2).n_shards == 2
        with pytest.raises(ValueError, match="n_shards must be >= 1"):
            config.replace(n_shards=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_pages", 0, "n_pages must be >= 1"),
            ("n_shards", 0, "n_shards must be >= 1"),
            ("mode", "plasma", "mode must be one of"),
            ("cache_capacity", 0, "cache_capacity must be >= 1 or None"),
            ("staleness_budget", -1, "staleness_budget must be non-negative"),
            ("feedback_rate", 1.5, "feedback_rate must be in"),
            ("tenants", 0, "tenants must be >= 1"),
            ("workers", -1, "workers must be non-negative"),
            ("clients", -1, "clients must be non-negative"),
            ("inbox_capacity", 0, "inbox_capacity must be >= 1"),
            ("max_attempts", 0, "max_attempts must be a positive integer"),
        ],
    )
    def test_validation_messages(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ServingConfig(**{field: value})


class TestBuildRouter:
    def test_matches_from_community_bit_for_bit(self):
        community = DEFAULT_COMMUNITY.scaled(600)
        config = ServingConfig(
            n_pages=600, n_shards=3, cache_capacity=16, staleness_budget=2, seed=5
        )
        via_config = build_router(config)
        via_shim = ShardedRouter.from_community(
            community,
            RECOMMENDED_POLICY,
            n_shards=3,
            cache_capacity=16,
            staleness_budget=2,
            seed=5,
        )
        for new_engine, old_engine in zip(via_config.engines, via_shim.engines, strict=True):
            assert np.array_equal(new_engine.state.quality, old_engine.state.quality)
        stats_config = run_stream(
            via_config, 300, workload=StreamingWorkload(seed=11)
        )
        stats_shim = run_stream(via_shim, 300, workload=StreamingWorkload(seed=11))
        assert stats_config.feedback_events == stats_shim.feedback_events
        for new_engine, old_engine in zip(via_config.engines, via_shim.engines, strict=True):
            assert np.array_equal(
                new_engine.state.pool.aware_count, old_engine.state.pool.aware_count
            )
            assert new_engine.state.version == old_engine.state.version

    def test_shim_keeps_policy_identity(self):
        policy = RankPromotionPolicy("uniform", 2, 0.3)
        router = ShardedRouter.from_community(
            DEFAULT_COMMUNITY.scaled(200), policy, n_shards=2, seed=0
        )
        assert all(engine.policy is policy for engine in router.engines)

    def test_shim_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        router = ShardedRouter.from_community(
            DEFAULT_COMMUNITY.scaled(200), RECOMMENDED_POLICY, n_shards=2, seed=seq
        )
        assert router.n_shards == 2

    def test_retry_policy_lands_on_router(self):
        config = ServingConfig(
            n_pages=100, n_shards=1, max_attempts=2, backoff_base=1e-3
        )
        router = build_router(config)
        assert router.robustness.retry_policy.max_attempts == 2
        assert router.robustness.retry_policy.base_backoff_seconds == 1e-3

    def test_telemetry_attaches(self):
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(n_shards=2, window=64)
        config = ServingConfig(n_pages=400, n_shards=2)
        router = build_router(config, telemetry=recorder)
        assert router.telemetry is recorder
        assert all(engine.telemetry is recorder for engine in router.engines)

    def test_states_must_cover_all_shards(self):
        config = ServingConfig(n_pages=400, n_shards=2)
        with pytest.raises(ValueError, match="one state per shard"):
            build_router(config, states=[None])

    def test_shard_count_cannot_exceed_pages(self):
        config = ServingConfig(n_pages=200, n_shards=300)
        with pytest.raises(ValueError, match="cannot exceed n_pages"):
            build_router(config, community=DEFAULT_COMMUNITY.scaled(200))


class TestRouterRobustnessState:
    def test_created_in_one_place_and_delegated(self):
        router = build_router(ServingConfig(n_pages=400, n_shards=2))
        assert router.robustness.supervisors is None
        assert router.robustness.occ_conflicts == 0

    def test_enable_disable_round_trip(self):
        router = build_router(ServingConfig(n_pages=400, n_shards=2))
        retry = RetryPolicy(max_attempts=2)
        router.enable_robustness(retry=retry, seed=1)
        assert router.robustness.retry_policy is retry
        supervisors = router.robustness.supervisors
        assert supervisors is not None and len(supervisors) == 2
        router.disable_robustness()
        assert router.robustness.supervisors is None


class TestCliServingConfig:
    def parse(self, argv):
        return build_parser().parse_args(["serve-bench", *argv])

    def test_defaults_build_in_process_config(self):
        config = serving_config_from_args(self.parse([]))
        assert config.workers == 0
        assert config.tenants == 1
        assert config.clients == 0
        assert config.n_pages == 20_000
        assert config.max_attempts == RetryPolicy().max_attempts

    def test_flags_land_in_config(self):
        args = self.parse(
            [
                "--pages", "2000",
                "--shards", "2",
                "--cache-size", "0",
                "--staleness-budget", "6",
                "--tenants", "8",
                "--clients", "4",
                "--workers", "4",
                "--inbox-capacity", "3",
                "--max-attempts", "2",
                "--backoff-base", "0.001",
                "--seed", "9",
            ]
        )
        config = serving_config_from_args(args)
        assert config.n_pages == 2000
        assert config.n_shards == 2
        assert config.cache_capacity is None
        assert config.staleness_budget == 6
        assert config.tenants == 8
        assert config.clients == 4
        assert config.workers == 4
        assert config.inbox_capacity == 3
        assert config.max_attempts == 2
        assert config.backoff_base == 0.001
        assert config.seed == 9

    def test_overrides_win(self):
        config = serving_config_from_args(self.parse([]), mode="stochastic")
        assert config.mode == "stochastic"

    def test_shared_flags_reach_every_serving_experiment(self):
        parser = build_parser()
        for experiment in ("serve-bench", "chaos-bench", "sweep-bench", "sweep-fig"):
            args = parser.parse_args(
                [experiment, "--tenants", "2", "--clients", "1", "--workers", "2"]
            )
            assert (args.tenants, args.clients, args.workers) == (2, 1, 2)
