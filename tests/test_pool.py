"""Tests for the multi-tenant serving pool and its shared-memory state."""

import numpy as np
import pytest

from repro.community.config import DEFAULT_COMMUNITY
from repro.serving.bench import sample_steady_awareness
from repro.serving.config import ServingConfig, build_pool, build_router
from repro.serving.pool import ServingPool, run_pool_benchmark
from repro.serving.state import (
    PopularityState,
    SharedPopularityState,
    shared_block_nbytes,
    shared_memory_available,
)
from repro.serving.tenancy import TenantSpec, plan_tenancy
from repro.serving.workload import StreamingWorkload, WorkloadConfig, run_stream
from repro.utils.rng import as_rng, derive_seed

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this platform",
)

COMMUNITY = DEFAULT_COMMUNITY.scaled(300)


def _commit_some(state, rng, batches=5, batch=8):
    for _ in range(batches):
        indices = rng.integers(0, state.n, size=batch)
        visits = np.ones(batch, dtype=float)
        assert state.commit_visits_at(indices, visits, state.version, rng=rng)


class TestPlanTenancy:
    def test_round_robin_assignment(self):
        specs = plan_tenancy(tenants=5, workers=2, seed=0, n_pages=100)
        assert [spec.worker for spec in specs] == [0, 1, 0, 1, 0]
        assert [spec.tenant for spec in specs] == [0, 1, 2, 3, 4]
        assert all(spec.n_pages == 100 for spec in specs)

    def test_seeds_are_derived_and_stable(self):
        first = plan_tenancy(tenants=3, workers=1, seed=7, n_pages=10)
        second = plan_tenancy(tenants=3, workers=1, seed=7, n_pages=10)
        assert [s.seed for s in first] == [s.seed for s in second]
        assert len({s.seed for s in first}) == 3
        assert first[1].seed == derive_seed(7, "tenant-1")

    def test_names_and_validation(self):
        assert TenantSpec(tenant=2, worker=0, seed=1, n_pages=5).name == "tenant-2"
        with pytest.raises(ValueError):
            plan_tenancy(tenants=0, workers=1, seed=0, n_pages=10)
        with pytest.raises(ValueError):
            plan_tenancy(tenants=1, workers=0, seed=0, n_pages=10)


class TestSharedPopularityState:
    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    def test_matches_local_state_bit_for_bit(self, mode):
        local = PopularityState.from_config(COMMUNITY, rng=3, mode=mode)
        shared = SharedPopularityState.create(COMMUNITY, rng=3, mode=mode)
        try:
            assert np.array_equal(shared.quality, local.quality)
            local_rng, shared_rng = as_rng(11), as_rng(11)
            _commit_some(local, local_rng)
            _commit_some(shared, shared_rng)
            assert np.array_equal(
                shared.pool.aware_count, local.pool.aware_count
            )
            assert np.array_equal(shared.popularity, local.popularity)
            assert shared.version == local.version
        finally:
            shared.close()
            shared.unlink()

    def test_conflict_rejects_without_mutation(self):
        shared = SharedPopularityState.create(COMMUNITY, rng=0, mode="fluid")
        try:
            before = shared.pool.aware_count.copy()
            stale = shared.version
            shared.bump_version()
            indices = np.array([0, 1, 2])
            visits = np.ones(3, dtype=float)
            assert not shared.commit_visits_at(indices, visits, stale, rng=as_rng(0))
            assert np.array_equal(shared.pool.aware_count, before)
            assert shared.counters()["shared_conflicts"] == 1.0
        finally:
            shared.close()
            shared.unlink()

    def test_attach_sees_owner_commits(self):
        owner = SharedPopularityState.create(COMMUNITY, rng=1, mode="fluid")
        try:
            attached = SharedPopularityState.attach(owner.handle, owner._lock)
            _commit_some(owner, as_rng(4), batches=2)
            assert attached.version == owner.version
            assert np.array_equal(
                attached.pool.aware_count, owner.pool.aware_count
            )
            # The attached side refreshes its popularity view lazily.
            attached.consume_dirty()
            assert np.array_equal(attached.popularity, owner.popularity)
            attached.close()
        finally:
            owner.close()
            owner.unlink()

    def test_close_freezes_a_readable_copy(self):
        shared = SharedPopularityState.create(COMMUNITY, rng=2, mode="fluid")
        _commit_some(shared, as_rng(5), batches=2)
        aware = shared.pool.aware_count.copy()
        version = shared.version
        shared.close()
        shared.unlink()
        assert np.array_equal(shared.pool.aware_count, aware)
        assert shared.version == version

    def test_block_nbytes_covers_header_and_arrays(self):
        assert shared_block_nbytes(10) >= 64 + 10 * 16 + 10


def _reference_router_run(config, spec, batches):
    """Drive an in-process router exactly the way a pool worker does."""
    router = build_router(config, seed=spec.seed)
    generator = as_rng(derive_seed(spec.seed, "serving-warm"))
    for engine in router.engines:
        engine.state.set_awareness(
            sample_steady_awareness(
                engine.state.n, engine.state.pool.monitored_population, generator
            )
        )
    workload = StreamingWorkload(
        WorkloadConfig(feedback_rate=config.feedback_rate),
        seed=derive_seed(spec.seed, "pool-stream"),
    )
    for n_queries in batches:
        run_stream(router, n_queries, workload=workload)
    router.flush_feedback()
    return router


class TestServingPool:
    CONFIG = ServingConfig(n_pages=300, n_shards=2, seed=0, workers=1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers >= 1"):
            ServingPool(self.CONFIG.replace(workers=0))

    def test_single_worker_matches_in_process_router(self):
        batches = [100, 100]
        pool = build_pool(self.CONFIG, warm=True)
        for n_queries in batches:
            pool.submit(0, n_queries)
        stats = pool.shutdown()
        assert stats["queries"] == float(sum(batches))

        spec = plan_tenancy(1, 1, self.CONFIG.seed, self.CONFIG.n_pages)[0]
        router = _reference_router_run(self.CONFIG, spec, batches)
        for shard, engine in enumerate(router.engines):
            frozen = pool.states[0][shard]
            assert np.array_equal(
                frozen.pool.aware_count, engine.state.pool.aware_count
            )
            assert np.array_equal(frozen.quality, engine.state.quality)
            assert frozen.version == engine.state.version

    def test_two_identical_pools_agree(self):
        results = []
        for _ in range(2):
            pool = ServingPool(
                self.CONFIG.replace(tenants=2, workers=2), warm=True
            )
            for tenant in range(2):
                pool.submit(tenant, 80)
            stats = pool.shutdown()
            results.append(
                (
                    stats["queries_tenant_0"],
                    stats["queries_tenant_1"],
                    [s.pool.aware_count.copy() for s in pool.states[0]]
                    + [s.pool.aware_count.copy() for s in pool.states[1]],
                )
            )
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]
        for left, right in zip(results[0][2], results[1][2], strict=True):
            assert np.array_equal(left, right)

    def test_backpressure_counts_when_inbox_is_full(self):
        pool = ServingPool(self.CONFIG.replace(inbox_capacity=1))
        for _ in range(6):
            pool.submit(0, 50)
        stats = pool.shutdown()
        assert stats["backpressure_events"] >= 1
        assert stats["queries"] == 300.0

    def test_ensure_alive_restarts_dead_worker(self):
        import time

        pool = ServingPool(self.CONFIG, warm=True)
        pool.submit(0, 50)
        victim = pool._workers[0]
        # Let the worker drain the inbox and go idle before killing it, so
        # it is not terminated while holding a shard lock mid-commit.
        deadline = 50
        while not pool._inboxes[0].empty() and deadline:
            time.sleep(0.1)
            deadline -= 1
        time.sleep(1.0)
        victim.terminate()
        victim.join(timeout=10)
        restarted = pool.ensure_alive()
        assert restarted == [0]
        assert pool.worker_restarts == 1
        pool.submit(0, 60)
        stats = pool.shutdown()
        assert stats["worker_restarts"] == 1.0
        # The restarted worker served the post-restart batch over the
        # surviving shared state.
        assert stats["queries"] == 60.0
        assert stats["shared_committed_events"] > 0.0


class TestConcurrentOccWriters:
    CONFIG = ServingConfig(
        n_pages=300, n_shards=2, seed=0, tenants=1, workers=1, clients=3
    )

    def run_clients(self, config, clients, rounds=6, batch=8, sync_rounds=2):
        pool = ServingPool(config, warm=True)
        processes = pool.start_clients(
            clients, rounds=rounds, batch=batch, sync_rounds=sync_rounds
        )
        payloads = pool.join_clients(processes)
        stats = pool.shutdown()
        return pool, payloads, stats

    def test_racing_writers_hit_organic_conflicts_and_lose_nothing(self):
        pool, payloads, stats = self.run_clients(self.CONFIG, clients=3)
        assert len(payloads) == 3
        sent = sum(p["sent_events"] for p in payloads)
        committed = sum(p["committed_events"] for p in payloads)
        leftover = sum(p["dead_letter_events"] for p in payloads)
        # At least one organic conflict: the synchronized rounds guarantee
        # every client held the same expected version, and only one commit
        # per shard can win it.
        assert stats["shared_conflicts"] >= 1
        assert sum(p["conflicts"] for p in payloads) >= 1
        # Zero lost visits: every sent event is committed or parked, and
        # the shared headers agree with the writers' own accounting.
        assert sent == committed + leftover
        assert stats["shared_committed_events"] == committed
        # Redelivery converged: nothing stayed parked.
        assert leftover == 0

    def test_dead_letter_redelivery_converges_with_one_attempt(self):
        config = self.CONFIG.replace(max_attempts=1)
        pool, payloads, stats = self.run_clients(
            config, clients=3, rounds=4, sync_rounds=4
        )
        assert len(payloads) == 3
        # max_attempts=1 means every conflicting batch parks immediately;
        # the redelivery loop must still land all of them.
        assert stats["shared_conflicts"] >= 1
        assert sum(p["redelivery_rounds"] for p in payloads) >= 1
        sent = sum(p["sent_events"] for p in payloads)
        committed = sum(p["committed_events"] for p in payloads)
        assert sum(p["dead_letter_events"] for p in payloads) == 0
        assert sent == committed
        assert stats["shared_committed_events"] == committed

    def test_workers_and_clients_race_on_the_same_shards(self):
        pool = ServingPool(self.CONFIG, warm=True)
        processes = pool.start_clients(2, rounds=6, batch=8)
        for _ in range(3):
            pool.submit(0, 60)
        payloads = pool.join_clients(processes)
        stats = pool.shutdown()
        client_sent = sum(p["sent_events"] for p in payloads)
        client_committed = sum(p["committed_events"] for p in payloads)
        client_leftover = sum(p["dead_letter_events"] for p in payloads)
        total_sent = stats["feedback_events"] + client_sent
        total_committed = stats["worker_committed_events"] + client_committed
        total_leftover = stats["worker_dead_letter_events"] + client_leftover
        assert total_sent == total_committed + total_leftover
        assert stats["shared_committed_events"] == total_committed


class TestRunPoolBenchmark:
    def test_smoke_report_invariants(self):
        report = run_pool_benchmark(
            n_pages=300,
            n_shards=2,
            tenants=2,
            workers=2,
            clients=2,
            n_queries=240,
            batches_per_tenant=2,
            client_rounds=4,
            client_batch=8,
            seed=0,
        )
        assert report["pool_zero_lost"] == 1.0
        assert report["pool_organic_conflict"] == 1.0
        assert report["pool_backpressure_engaged"] == 1.0
        assert report["lost_events"] == 0.0
        assert report["pool_scaling_ratio"] > 0.0
        assert report["queries"] == 480.0
        assert report["queries_tenant_0"] == 240.0
        assert report["queries_tenant_1"] == 240.0

    def test_telemetry_rows_merge_into_report(self):
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(n_shards=2, window=64, label="pool-test")
        report = run_pool_benchmark(
            n_pages=300,
            n_shards=2,
            tenants=1,
            workers=1,
            clients=2,
            n_queries=120,
            batches_per_tenant=2,
            client_rounds=4,
            client_batch=8,
            seed=1,
            telemetry=recorder,
        )
        assert any(key.startswith("telemetry_") for key in report)
        kinds = {row.get("kind") for row in recorder.rows}
        assert "pool_summary" in kinds
        assert "pool_worker" in kinds
        assert "pool_client" in kinds
