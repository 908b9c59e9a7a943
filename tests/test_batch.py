"""Tests for the vectorized batch simulation engine and its parity contract.

The batch engine's promise is strong: replicate ``r`` of a batch run is
*bit-identical* to sequential repetition ``r`` at equal seeds, because both
consume the same ``spawn_rngs`` stream in the same order.  These tests pin
that down in fluid mode (the acceptance contract), check stochastic-mode
statistical consistency, exercise the custom-ranker fallback path, and
verify the batched merge/order kernels against their sequential references
by brute force.
"""

import threading

import numpy as np
import pytest

from repro.baselines.derivative import DerivativeForecastRanker
from repro.community import BatchPagePool, CommunityConfig, PagePool
from repro.community.lifecycle import FixedLifetimeLifecycle, Lifecycle
from repro.community.page import awareness_gain, awareness_gain_batch
from repro.core.kernels import get_backend
from repro.core.batch_rank import (
    batched_deterministic_order,
    batched_merge_counts,
    batched_promotion_merge,
)
from repro.core.merge import merge_positions
from repro.core.policy import RankPromotionPolicy
from repro.core.promotion import PromotionRule
from repro.core.rankers import (
    PopularityRanker,
    RandomizedPromotionRanker,
    Ranker,
    _deterministic_order,
)
from repro.core.rankers_context import BatchRankingContext, RankingContext
from repro.simulation import BatchSimulator, SimulationConfig, Simulator, run_batch
from repro.simulation.bench import run_simulation_benchmark
from repro.simulation.runner import (
    _run_replicates,
    measure_qpc,
    popularity_trajectory,
)
from repro.utils.rng import spawn_rngs
from repro.visits.attention import PowerLawAttention


@pytest.fixture
def batch_community():
    return CommunityConfig(
        n_pages=150,
        n_users=30,
        monitored_fraction=0.25,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=40.0,
    )


def _paired_results(community, policy, config, repetitions=3, seed=11):
    sequential = _run_replicates(
        community, policy, config, repetitions=repetitions, seed=seed,
        engine="sequential",
    )
    batch = _run_replicates(
        community, policy, config, repetitions=repetitions, seed=seed,
        engine="batch",
    )
    return sequential, batch


class TestFluidParity:
    """Fluid mode: the batch path is bit-identical replicate-for-replicate."""

    @pytest.mark.parametrize(
        "rule,k,r",
        [("selective", 1, 0.1), ("uniform", 2, 0.2), ("none", 1, 0.0)],
    )
    def test_qpc_bit_identical(self, batch_community, rule, k, r):
        config = SimulationConfig(warmup_days=25, measure_days=25, mode="fluid")
        sequential, batch = _paired_results(
            batch_community, RankPromotionPolicy(rule, k, r), config
        )
        for seq_result, batch_result in zip(sequential, batch, strict=True):
            assert seq_result.qpc_absolute == batch_result.qpc_absolute
            assert seq_result.qpc_normalized == batch_result.qpc_normalized
            assert np.array_equal(seq_result.quality, batch_result.quality)
            assert np.array_equal(
                seq_result.final_awareness, batch_result.final_awareness
            )

    def test_probe_trajectories_bit_identical(self, batch_community):
        config = SimulationConfig(
            warmup_days=20, measure_days=20, mode="fluid",
            probe_quality=0.4, probe_horizon_days=30,
        )
        sequential, batch = _paired_results(
            batch_community, RankPromotionPolicy("selective", 1, 0.2), config
        )
        for seq_result, batch_result in zip(sequential, batch, strict=True):
            assert np.array_equal(
                seq_result.probe_trajectory, batch_result.probe_trajectory
            )
            assert seq_result.tbp_days == batch_result.tbp_days

    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    def test_mixed_surfing_bit_identical(self, batch_community, mode):
        from repro.visits.surfing import MixedSurfingModel

        surfing = MixedSurfingModel(surfing_fraction=0.4)
        config = SimulationConfig(warmup_days=20, measure_days=20, mode=mode)
        sequential = _run_replicates(
            batch_community, RankPromotionPolicy("selective", 1, 0.1), config,
            surfing=surfing, repetitions=3, seed=13, engine="sequential",
        )
        batch = _run_replicates(
            batch_community, RankPromotionPolicy("selective", 1, 0.1), config,
            surfing=surfing, repetitions=3, seed=13, engine="batch",
        )
        for seq_result, batch_result in zip(sequential, batch, strict=True):
            assert seq_result.qpc_absolute == batch_result.qpc_absolute
            assert np.array_equal(
                seq_result.final_awareness, batch_result.final_awareness
            )

    def test_surfing_shares_batch_matches_rows(self, rng):
        from repro.visits.surfing import MixedSurfingModel

        model = MixedSurfingModel(surfing_fraction=0.3, teleportation=0.2)
        popularity = rng.random((5, 40))
        popularity[2, :] = 0.0  # zero-total row collapses to pure teleport
        batch = model.surfing_shares_batch(popularity)
        for row in range(5):
            assert np.array_equal(batch[row], model.surfing_shares(popularity[row]))

    def test_measure_qpc_engine_equality(self, batch_community):
        policy = RankPromotionPolicy("selective", 1, 0.1)
        config = SimulationConfig(warmup_days=20, measure_days=20, mode="fluid")
        by_batch = measure_qpc(batch_community, policy, config,
                               repetitions=3, seed=5, engine="batch")
        by_loop = measure_qpc(batch_community, policy, config,
                              repetitions=3, seed=5, engine="sequential")
        assert by_batch == by_loop

    def test_config_seed_is_the_default_seed(self, batch_community):
        """Without ``seed``, the replicate streams come from ``config.seed``."""
        policy = RankPromotionPolicy("selective", 1, 0.1)
        config = SimulationConfig(warmup_days=20, measure_days=20, mode="fluid", seed=0)
        first = measure_qpc(batch_community, policy, config, repetitions=2)
        second = measure_qpc(batch_community, policy, config, repetitions=2)
        by_loop = measure_qpc(
            batch_community, policy, config, repetitions=2, engine="sequential"
        )
        assert first == second == by_loop
        assert first == measure_qpc(
            batch_community, policy, config, repetitions=2, seed=0
        )
        trajectories = [
            popularity_trajectory(
                batch_community, policy, horizon_days=10, config=config,
                repetitions=2,
            )
            for _ in range(2)
        ]
        assert np.array_equal(*trajectories)

    def test_invalid_engine_rejected(self, batch_community):
        with pytest.raises(ValueError):
            measure_qpc(batch_community, RankPromotionPolicy("none", 1, 0.0),
                        engine="turbo")


class TestStochasticConsistency:
    """Stochastic mode: batch sampling is statistically consistent."""

    def test_qpc_mean_within_tolerance(self, batch_community):
        policy = RankPromotionPolicy("selective", 1, 0.1)
        config = SimulationConfig(warmup_days=30, measure_days=30, mode="stochastic")
        sequential, batch = _paired_results(
            batch_community, policy, config, repetitions=4, seed=21
        )
        seq_mean = np.mean([r.qpc_absolute for r in sequential])
        batch_mean = np.mean([r.qpc_absolute for r in batch])
        assert batch_mean == pytest.approx(seq_mean, rel=0.05)

    def test_draws_actually_identical(self, batch_community):
        # Stronger than required: the batch engine consumes each replicate's
        # stream exactly like the sequential engine, so even stochastic mode
        # is draw-for-draw identical.
        policy = RankPromotionPolicy("uniform", 1, 0.15)
        config = SimulationConfig(warmup_days=20, measure_days=20, mode="stochastic")
        sequential, batch = _paired_results(
            batch_community, policy, config, repetitions=3, seed=8
        )
        for seq_result, batch_result in zip(sequential, batch, strict=True):
            assert np.array_equal(
                seq_result.final_awareness, batch_result.final_awareness
            )


class _ReverseQualityRanker(Ranker):
    """A custom ranker that only implements the sequential interface."""

    def rank(self, context, rng=None):
        # Worst-first oracle plus one generator draw, to check the fallback
        # threads each row's generator through.
        noise = np.asarray(rng.random(context.n))
        return np.lexsort((noise, context.quality))


class _EveryThirdRule(PromotionRule):
    """A custom promotion rule without a vectorized select_batch."""

    def select(self, context, rng=None):
        mask = np.zeros(context.n, dtype=bool)
        mask[::3] = True
        return mask


class TestFallbackPaths:
    def test_custom_ranker_matches_sequential(self, batch_community):
        config = SimulationConfig(warmup_days=10, measure_days=10, mode="fluid")
        rngs_batch = spawn_rngs(3, 3)
        rngs_seq = spawn_rngs(3, 3)
        batch = BatchSimulator(
            batch_community, _ReverseQualityRanker(), config, rngs=rngs_batch
        ).run()
        for row, rng in enumerate(rngs_seq):
            sequential = Simulator(
                batch_community, _ReverseQualityRanker(), config.with_seed(rng)
            ).run()
            assert sequential.qpc_absolute == batch[row].qpc_absolute

    def test_custom_promotion_rule_matches_sequential(self, batch_community):
        ranker = RandomizedPromotionRanker(_EveryThirdRule(), k=1, r=0.3)
        config = SimulationConfig(warmup_days=10, measure_days=10, mode="fluid")
        batch = BatchSimulator(
            batch_community, ranker, config, rngs=spawn_rngs(4, 2)
        ).run()
        for row, rng in enumerate(spawn_rngs(4, 2)):
            sequential = Simulator(
                batch_community, ranker, config.with_seed(rng)
            ).run()
            assert sequential.qpc_absolute == batch[row].qpc_absolute


class TestBatchedOrderKernel:
    @pytest.mark.parametrize("tie_breaker", ["random", "age", "index"])
    def test_matches_sequential_order(self, tie_breaker, rng):
        R, n = 6, 60
        # Heavy ties: quantized scores collide across and within rows.
        scores = np.round(rng.random((R, n)), 1)
        scores[:, ::7] = 0.0
        ages = rng.integers(0, 5, size=(R, n)).astype(float)
        batch_rngs = [np.random.default_rng(100 + i) for i in range(R)]
        seq_rngs = [np.random.default_rng(100 + i) for i in range(R)]
        perms = batched_deterministic_order(scores, ages, tie_breaker, batch_rngs)
        for row in range(R):
            expected = _deterministic_order(
                scores[row], ages[row], tie_breaker, seq_rngs[row]
            )
            assert np.array_equal(perms[row], expected)

    def test_age_tie_break_without_ages_matches_sequential(self):
        # Sequential substitutes zero ages when the context has none; the
        # batched order must mirror that rather than erroring.
        scores = np.tile(np.array([0.2, 0.2, 0.5, 0.2]), (2, 1))
        perms = batched_deterministic_order(scores, None, "age", [])
        for row in range(2):
            expected = _deterministic_order(scores[row], None, "age")
            assert np.array_equal(perms[row], expected)

    def test_all_equal_scores(self):
        scores = np.zeros((3, 40))
        batch_rngs = [np.random.default_rng(i) for i in range(3)]
        seq_rngs = [np.random.default_rng(i) for i in range(3)]
        perms = batched_deterministic_order(scores, None, "random", batch_rngs)
        for row in range(3):
            expected = _deterministic_order(scores[row], None, "random", seq_rngs[row])
            assert np.array_equal(perms[row], expected)

    def test_unknown_tie_breaker_rejected(self):
        with pytest.raises(ValueError):
            batched_deterministic_order(np.zeros((1, 4)), None, "sideways", [])

    def test_deterministic_order_requires_rng(self):
        with pytest.raises(ValueError):
            _deterministic_order(np.arange(4.0), None, "random", None)


class TestBatchedMergeKernel:
    def test_merge_counts_match_merge_positions(self):
        rng = np.random.default_rng(0)
        for _trial in range(200):
            n = int(rng.integers(1, 40))
            n_promoted = int(rng.integers(0, n + 1))
            k = int(rng.integers(1, n + 2))
            r = float(rng.random())
            seed = int(rng.integers(0, 2**31))
            expected = merge_positions(
                n, n_promoted, k, r, np.random.default_rng(seed)
            )
            # Rebuild the flip matrix exactly as the batch kernel would.
            generator = np.random.default_rng(seed)
            n_det = n - n_promoted
            taken = min(k - 1, n_det)
            flips = np.zeros((1, n), dtype=bool)
            if n_promoted > 0 and taken < n and n_det - taken > 0:
                flips[0, taken:] = generator.random(n - taken) < r
            counts = batched_merge_counts(
                flips, np.array([n_det]), np.array([n_promoted])
            )
            slots = np.diff(counts, axis=1, prepend=0)[0] > 0
            assert np.array_equal(slots, expected), (n, n_promoted, k, r)

    def test_promotion_merge_matches_sequential_ranker(self, rng):
        # Full ranker-level comparison across many random pool shapes.
        for _trial in range(25):
            n = int(rng.integers(5, 80))
            popularity = np.round(rng.random(n), 2)
            awareness = rng.random(n)
            k = int(rng.integers(1, 4))
            r = float(rng.uniform(0.05, 0.9))
            ranker = RandomizedPromotionRanker(_EveryThirdRule(), k=k, r=r)
            context_row = RankingContext(
                popularity=popularity, awareness=awareness
            )
            batch_context = BatchRankingContext(
                popularity=popularity[None, :], awareness=awareness[None, :]
            )
            seed = int(rng.integers(0, 2**31))
            expected = ranker.rank(context_row, np.random.default_rng(seed))
            got = ranker.rank_batch(batch_context, [np.random.default_rng(seed)])
            assert np.array_equal(got[0], expected), (n, k, r)


class TestBatchPagePool:
    def test_from_config_matches_sequential_pools(self, batch_community):
        batch = BatchPagePool.from_config(batch_community, spawn_rngs(9, 3))
        for row, rng in enumerate(spawn_rngs(9, 3)):
            single = PagePool.from_config(batch_community, rng)
            assert np.array_equal(batch.quality[row], single.quality)
        assert batch.replicates == 3
        assert batch.n == batch_community.n_pages
        # Rows sampled in concurrent blocks land in the same matrix.
        for n_workers in (2, 3):
            blocked = BatchPagePool.from_config(
                batch_community, spawn_rngs(9, 3), n_workers=n_workers
            )
            assert np.array_equal(blocked.quality, batch.quality)
            assert blocked.quality.flags.c_contiguous

    def test_row_view_writes_through(self, batch_community):
        pool = BatchPagePool.from_config(batch_community, spawn_rngs(0, 4))
        view = pool.rows(1, 3)
        assert view.replicates == 2
        view.replace_row_pages(1, np.array([0, 5]), now=2.0)
        view.aware_count[0, 7] = 4.0
        n = pool.n
        assert pool.page_ids[2, 0] == n and pool.page_ids[2, 5] == n + 1
        assert pool._next_page_id.tolist() == [n, n, n + 2, n]
        assert pool.created_at[2, 5] == 2.0
        assert pool.aware_count[1, 7] == 4.0

    def test_replace_row_pages_bookkeeping(self, batch_community):
        pool = BatchPagePool.from_config(batch_community, spawn_rngs(0, 2))
        pool.aware_count[0, :] = 3.0
        replaced = pool.replace_row_pages(0, np.array([1, 4]), now=7.0)
        assert np.array_equal(replaced, [1, 4])
        assert pool.aware_count[0, 1] == 0.0
        assert pool.created_at[0, 4] == 7.0
        n = pool.n
        assert pool.page_ids[0, 1] == n and pool.page_ids[0, 4] == n + 1
        # Row 1 untouched, with its own id counter.
        assert pool.page_ids[1, 1] == 1

    def test_awareness_gain_batch_matches_rows(self, rng):
        aware = rng.random((4, 30)) * 5
        visits = rng.integers(0, 3, size=(4, 30)).astype(float)
        batch_rngs = [np.random.default_rng(50 + i) for i in range(4)]
        seq_rngs = [np.random.default_rng(50 + i) for i in range(4)]
        batch = awareness_gain_batch(aware, 10, visits, "stochastic", batch_rngs)
        for row in range(4):
            expected = awareness_gain(aware[row], 10, visits[row], "stochastic",
                                      seq_rngs[row])
            assert np.array_equal(batch[row], expected)


class TestProcessPoolSharding:
    def test_sharded_run_matches_in_process(self, batch_community):
        config = SimulationConfig(warmup_days=8, measure_days=8, mode="fluid")
        ranker = RankPromotionPolicy("selective", 1, 0.1).build_ranker()
        in_process = run_batch(
            batch_community, ranker, config, rngs=spawn_rngs(2, 4)
        )
        sharded = run_batch(
            batch_community, ranker, config, rngs=spawn_rngs(2, 4), n_workers=2
        )
        assert [r.qpc_absolute for r in sharded] == [
            r.qpc_absolute for r in in_process
        ]


class _PerRowFixedLifetime(FixedLifetimeLifecycle):
    """Fixed lifetimes through the default per-row ``step_batch`` (row views)."""

    step_batch = Lifecycle.step_batch


def _block_case(case):
    """``BatchSimulator`` keyword arguments of one block-parity case."""
    config = dict(warmup_days=6, measure_days=6, mode="fluid")
    kwargs = {"ranker": RankPromotionPolicy("selective", 1, 0.2).build_ranker()}
    if case == "stochastic":
        config["mode"] = "stochastic"
    elif case == "probe_quality":
        config.update(probe_quality=0.3, probe_horizon_days=9)
    elif case == "fixed_lifetime":
        kwargs["lifecycle"] = FixedLifetimeLifecycle(lifetime_days=4.0)
    elif case == "row_pool_lifecycle":
        kwargs["lifecycle"] = _PerRowFixedLifetime(lifetime_days=4.0)
    elif case == "history":
        kwargs["ranker"] = DerivativeForecastRanker(horizon_days=5.0)
        kwargs["history_length"] = 3
    kwargs["config"] = SimulationConfig(**config)
    return kwargs


def _block_outcome(community, case, n_workers):
    simulator = BatchSimulator(
        community, rngs=spawn_rngs(17, 7), n_workers=n_workers, **_block_case(case)
    )
    expected_blocks = n_workers if get_backend().thread_safe else 1
    assert len(simulator._blocks) == expected_blocks
    results = simulator.run()
    pool = simulator.pool
    return results, (pool.aware_count, pool.page_ids, pool._next_page_id)


class TestReplicateBlocks:
    """Rows stepped in concurrent blocks are bit-identical to one block."""

    @pytest.mark.parametrize(
        "case",
        [
            "fluid",
            "stochastic",
            "probe_quality",
            "fixed_lifetime",
            "row_pool_lifecycle",
            "history",
        ],
    )
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_blocks_bit_identical(self, batch_community, case, n_workers):
        # R = 7 splits unevenly: 4 + 3 rows, or 3 + 2 + 2.
        expected, expected_state = _block_outcome(batch_community, case, 1)
        results, state = _block_outcome(batch_community, case, n_workers)
        for ours, theirs in zip(results, expected, strict=True):
            assert ours.qpc_absolute == theirs.qpc_absolute
            assert ours.qpc_normalized == theirs.qpc_normalized
            assert np.array_equal(ours.quality, theirs.quality)
            assert np.array_equal(ours.final_awareness, theirs.final_awareness)
            assert ours.tbp_days == theirs.tbp_days
            if theirs.probe_trajectory is None:
                assert ours.probe_trajectory is None
            else:
                assert np.array_equal(ours.probe_trajectory, theirs.probe_trajectory)
        for ours, theirs in zip(state, expected_state, strict=True):
            assert np.array_equal(ours, theirs)
        if case in ("fixed_lifetime", "row_pool_lifecycle"):
            assert (state[2] > batch_community.n_pages).all()  # pages recycled

    def test_step_visits_match_one_block(self, batch_community):
        visits = {}
        for n_workers in (1, 2):
            simulator = BatchSimulator(
                batch_community, rngs=spawn_rngs(3, 7), n_workers=n_workers,
                **_block_case("stochastic"),
            )
            assert simulator.step(compute_all_visits=False) is None
            visits[n_workers] = [simulator.step() for _ in range(3)]
        assert np.array_equal(visits[1], visits[2])

    def test_backend_without_thread_safety_stays_on_the_caller(
        self, batch_community, monkeypatch
    ):
        backend_class = type(get_backend())
        built_threaded = BatchSimulator(
            batch_community, rngs=spawn_rngs(3, 7), n_workers=2,
            **_block_case("fluid"),
        )
        monkeypatch.setattr(backend_class, "thread_safe", False)
        built_serial = BatchSimulator(
            batch_community, rngs=spawn_rngs(3, 7), n_workers=2,
            **_block_case("fluid"),
        )
        assert built_serial._blocks == [built_serial]
        threads = set()
        rank_day = backend_class.rank_day

        def spy(self, *args, **kwargs):
            threads.add(threading.get_ident())
            return rank_day(self, *args, **kwargs)

        monkeypatch.setattr(backend_class, "rank_day", spy)
        built_threaded.step()
        built_serial.step()
        assert threads == {threading.get_ident()}

    def test_auto_sizing_keeps_small_batches_in_one_block(self, batch_community):
        simulator = BatchSimulator(
            batch_community, rngs=spawn_rngs(0, 15), **_block_case("fluid")
        )
        assert simulator._blocks == [simulator]


class TestAttentionShareCache:
    def test_visit_shares_cached_and_readonly(self):
        model = PowerLawAttention()
        first = model.visit_shares(64)
        second = model.visit_shares(64)
        assert first is second
        assert not first.flags.writeable
        assert first.sum() == pytest.approx(1.0)

    def test_distinct_models_not_conflated(self):
        a = PowerLawAttention(exponent=1.5).visit_shares(32)
        b = PowerLawAttention(exponent=1.0).visit_shares(32)
        assert not np.array_equal(a, b)


class TestBenchmarkHelper:
    def test_report_keys_and_parity(self, batch_community):
        report = run_simulation_benchmark(
            community=batch_community,
            replicates=4,
            baseline_replicates=2,
            warmup_days=5,
            measure_days=5,
            seed=0,
        )
        assert report["parity_bit_identical"] == 1.0
        assert report["pagedays_per_second_batch"] > 0
        assert report["speedup_batch_vs_sequential"] > 0
