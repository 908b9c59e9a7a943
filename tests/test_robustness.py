"""Tests for the robustness layer: faults, OCC writes, recovery.

The load-bearing contract is crash consistency: *checkpoint + journal
replay restores a shard's popularity state bit-identically* — covered
directly (unit replay, hypothesis-fuzzed batches, both kernel backends)
and end-to-end (the chaos benchmark's internal digest and its external
fault-free-reference parity).  The rest covers the scripted fault plans,
the OCC retry/backoff/dead-letter write path, degradation budgets and
load shedding, cache poisoning, and the telemetry context manager.
"""

import importlib.util
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import CommunityConfig
from repro.core.kernels import use_backend
from repro.robustness import (
    POISON_VERSION,
    DeadLetterQueue,
    DegradationPolicy,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FeedbackJournal,
    FlushReport,
    LoadShedError,
    RetryPolicy,
    ShardCheckpoint,
    pinned_fault_plan,
    run_chaos_benchmark,
    state_digest,
)
from repro.serving import (
    PopularityState,
    ResultPageCache,
    ServingConfig,
    ServingEngine,
    build_router,
)
from repro.telemetry import TelemetryRecorder

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba not installed (optional backend)"
)

COMMUNITY = CommunityConfig(
    n_pages=240,
    n_users=48,
    monitored_fraction=0.3,
    visits_per_user_per_day=1.0,
    expected_lifetime_days=40.0,
)


def make_router(n_shards=2, cache_capacity=8, staleness_budget=2, seed=0):
    config = ServingConfig(
        n_pages=COMMUNITY.n_pages,
        n_shards=n_shards,
        cache_capacity=cache_capacity,
        staleness_budget=staleness_budget,
        seed=seed,
    )
    return build_router(config, community=COMMUNITY)


def query_for_shard(router, shard):
    """A query id that routes to ``shard`` (stable hashing, so search)."""
    for query_id in range(10_000):
        if router.shard_for(query_id) == shard:
            return query_id
    raise AssertionError("no query id found for shard %d" % shard)


# ------------------------------------------------------------- fault plans


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", at_query=1)
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", at_query=0)
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", at_query=1, shard=-1)
        with pytest.raises(ValueError):
            FaultEvent(kind="stall", at_query=1, duration=-1)
        with pytest.raises(ValueError):
            FaultEvent(kind="conflict", at_query=1, count=0)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", at_query=10, shard=1, duration=5),
                FaultEvent(kind="conflict", at_query=3, shard=0, count=2),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # The wire format is plain JSON an operator can write by hand.
        payload = json.loads(plan.to_json())
        assert payload["events"][0]["kind"] == "crash"

    def test_sorted_events_and_max_shard(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="stall", at_query=9, shard=3),
                FaultEvent(kind="drop", at_query=2, shard=1),
            )
        )
        assert [event.at_query for event in plan.sorted_events()] == [2, 9]
        assert plan.max_shard() == 3
        assert FaultPlan().max_shard() == -1

    def test_injector_rejects_out_of_range_shard(self):
        router = make_router(n_shards=2)
        plan = FaultPlan(events=(FaultEvent(kind="stall", at_query=1, shard=5),))
        with pytest.raises(ValueError, match="shard 5"):
            FaultInjector(plan, router)

    def test_pinned_plan_validation(self):
        with pytest.raises(ValueError, match="n_queries"):
            pinned_fault_plan(100, 4, flush_every=64)
        with pytest.raises(ValueError, match="shards"):
            pinned_fault_plan(1024, 1)
        plan = pinned_fault_plan(1024, 4)
        kinds = sorted(event.kind for event in plan.events)
        assert kinds == ["conflict", "crash", "poison", "stall"]
        # The crash fires first so recovery can be parity-checked against
        # the fault-free reference.
        assert plan.sorted_events()[0].kind == "crash"


# ------------------------------------------------------------- retry policy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_seconds=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(0, np.random.default_rng(0))

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(
            base_backoff_seconds=1e-3,
            backoff_multiplier=2.0,
            max_backoff_seconds=4e-3,
            jitter=0.5,
        )
        first = [
            policy.backoff_seconds(c, np.random.default_rng(7)) for c in (1, 2, 3, 9)
        ]
        second = [
            policy.backoff_seconds(c, np.random.default_rng(7)) for c in (1, 2, 3, 9)
        ]
        assert first == second  # seeded jitter replays exactly
        for conflict_count, backoff in zip((1, 2, 3, 9), first, strict=True):
            ceiling = min(4e-3, 1e-3 * 2.0 ** (conflict_count - 1))
            assert 0.5 * ceiling <= backoff <= ceiling

    def test_no_jitter_is_exact_exponential(self):
        policy = RetryPolicy(
            base_backoff_seconds=1e-3, max_backoff_seconds=1.0, jitter=0.0
        )
        rng = np.random.default_rng(0)
        assert policy.backoff_seconds(1, rng) == pytest.approx(1e-3)
        assert policy.backoff_seconds(2, rng) == pytest.approx(2e-3)
        assert policy.backoff_seconds(3, rng) == pytest.approx(4e-3)


# ------------------------------------------------------------ flush report


class TestFlushReport:
    def test_merge_and_bool(self):
        empty = FlushReport()
        assert not empty
        report = FlushReport(batches=1, committed=3, conflicts=1, retries=1)
        report.merge(FlushReport(batches=2, committed=0, dead_letter_events=4))
        assert bool(report)
        assert report.batches == 3
        assert report.committed == 3
        assert report.dead_letter_events == 4

    def test_as_dict_prefix(self):
        report = FlushReport(committed=2, dropped_events=1)
        payload = report.as_dict()
        assert payload["flush_committed"] == 2.0
        assert payload["flush_dropped_events"] == 1.0
        assert set(report.as_dict(prefix="x_")) == {
            "x_" + key.split("flush_", 1)[1] for key in payload
        }

    def test_dead_letter_queue_totals_survive_drain(self):
        from repro.robustness import DeadLetter

        queue = DeadLetterQueue()
        queue.park(
            DeadLetter(
                shard=0,
                indices=np.array([1, 2]),
                visits=np.array([1.0, 1.0]),
                attempts=4,
            )
        )
        assert len(queue) == 1
        assert queue.total_events == 2
        assert len(queue.drain()) == 1
        assert len(queue) == 0
        assert queue.total_batches == 1
        assert queue.total_events == 2


# --------------------------------------------------------------- OCC state


class TestOCCState:
    def test_commit_rejected_without_mutation(self):
        state = PopularityState.from_config(COMMUNITY, np.random.default_rng(0))
        before = state.pool.aware_count.copy()
        stale_version = state.version
        state.bump_version()  # a concurrent writer got there first
        committed = state.commit_visits_at(
            np.array([1, 2]), np.array([1.0, 1.0]), stale_version
        )
        assert committed is False
        np.testing.assert_array_equal(state.pool.aware_count, before)

    def test_commit_applies_at_matching_version(self):
        state = PopularityState.from_config(COMMUNITY, np.random.default_rng(0))
        state.pool.quality[:] = 0.9
        assert state.commit_visits_at(
            np.array([1]), np.array([5.0]), state.version
        )
        assert state.pool.aware_count[1] > 0

    def test_router_retries_injected_conflict(self):
        router = make_router()
        query = query_for_shard(router, 0)
        plan = FaultPlan(
            events=(FaultEvent(kind="conflict", at_query=1, shard=0, count=1),)
        )
        router.enable_robustness(plan, seed=0, sleep=lambda seconds: None)
        router.serve(query, k=5)  # fires the scripted conflict
        router.submit_feedback(query, page_index=3)
        report = router.flush_feedback()
        assert report.committed == 1
        assert report.conflicts == 1
        assert report.retries == 1
        assert report.dead_letter_batches == 0
        assert report.backoff_seconds > 0.0
        assert router.robustness.occ_conflicts == 1

    def test_router_dead_letters_then_redelivers(self):
        router = make_router()
        query = query_for_shard(router, 0)
        plan = FaultPlan(
            events=(FaultEvent(kind="conflict", at_query=1, shard=0, count=5),)
        )
        router.enable_robustness(
            plan,
            retry=RetryPolicy(max_attempts=2, base_backoff_seconds=0.0),
            seed=0,
        )
        router.serve(query, k=5)
        router.submit_feedback(query, page_index=3)
        report = router.flush_feedback()
        assert report.committed == 0
        assert report.dead_letter_batches == 1
        assert report.dead_letter_events == 1
        assert len(router.robustness.dead_letters) == 1
        # Two more injected conflicts remain: the first redelivery conflicts
        # out again and is re-parked ...
        report = router.redeliver_dead_letters()
        assert report.committed == 0
        assert report.dead_letter_batches == 1
        # ... and once the storm passes (one conflict left), it commits.
        report = router.redeliver_dead_letters()
        assert report.committed == 1
        assert len(router.robustness.dead_letters) == 0
        assert router.robustness.dead_letters.total_batches == 2  # history preserved

    def test_flush_truthiness_preserved(self):
        router = make_router()
        query = query_for_shard(router, 1)
        assert not router.flush_feedback()  # nothing buffered
        router.submit_feedback(query, page_index=0)
        assert router.flush_feedback()  # legacy truthy contract


# ------------------------------------------------------------ batch faults


class TestBatchFaults:
    def arm(self, kind, count=1):
        router = make_router()
        query = query_for_shard(router, 0)
        events = tuple(
            FaultEvent(kind=kind, at_query=1, shard=0) for _ in range(count)
        )
        router.enable_robustness(FaultPlan(events=events), seed=0)
        router.serve(query, k=5)
        return router, query

    def test_drop_loses_the_batch(self):
        router, query = self.arm("drop")
        router.submit_feedback(query, page_index=1)
        report = router.flush_feedback()
        assert report.committed == 0
        assert report.dropped_events == 1
        assert router._pending_indices[0] == []  # gone, not retried
        assert router.faults.batches_dropped == 1

    def test_duplicate_commits_twice(self):
        router, query = self.arm("duplicate")
        engine = router.engines[0]
        version_before = engine.state.version
        router.submit_feedback(query, page_index=1)
        report = router.flush_feedback()
        assert report.batches == 2
        assert report.committed == 2
        assert engine.state.version == version_before + 2

    def test_reorder_defers_to_next_flush(self):
        router, query = self.arm("reorder")
        router.submit_feedback(query, page_index=1)
        first = router.flush_feedback()
        assert first.committed == 0  # held back
        router.submit_feedback(query, page_index=2)
        second = router.flush_feedback()
        # The fresh batch commits first, then the held one — both land.
        assert second.batches == 2
        assert second.committed == 2


# ----------------------------------------------------- checkpoint / journal


def apply_journaled_batches(state, journal, batches, rng=None):
    """Apply feedback batches to ``state``, journaling like the router."""
    for indices, visits in batches:
        rng_state = None
        if state.mode != "fluid" and rng is not None:
            rng_state = rng.bit_generator.state
        state.apply_visits_at(indices, visits, rng=rng)
        journal.append_commit(indices, visits, rng_state=rng_state)


class TestCheckpointJournal:
    def test_checkpoint_restore_is_bit_identical(self):
        state = PopularityState.from_config(COMMUNITY, np.random.default_rng(1))
        state.set_awareness(np.minimum(np.arange(state.n) % 7, 5).astype(float))
        checkpoint = ShardCheckpoint.capture(state, day=3)
        # Mutating the live state must not leak into the snapshot.
        state.apply_visits_at(np.array([0, 1]), np.array([2.0, 2.0]))
        restored = checkpoint.restore_state()
        assert state_digest(restored, 3) == checkpoint.digest()
        assert state_digest(restored, 3) != state_digest(state, 3)

    def test_checkpoint_npz_round_trip(self, tmp_path):
        state = PopularityState.from_config(COMMUNITY, np.random.default_rng(2))
        checkpoint = ShardCheckpoint.capture(state, day=5)
        path = str(tmp_path / "shard.npz")
        checkpoint.save(path)
        loaded = ShardCheckpoint.load(path)
        assert loaded.digest() == checkpoint.digest()
        assert state_digest(loaded.restore_state(), 5) == checkpoint.digest()

    def test_journal_jsonl_round_trip(self, tmp_path):
        journal = FeedbackJournal()
        rng_state = np.random.default_rng(3).bit_generator.state
        journal.append_commit(
            np.array([4, 5]), np.array([1.0, 2.0]), rng_state=rng_state
        )
        journal.append_bump()
        journal.append_day(np.array([7]), now=2.0)
        path = str(tmp_path / "journal.jsonl")
        journal.to_jsonl(path)
        loaded = FeedbackJournal.from_jsonl(path)
        assert len(loaded) == 3
        assert [entry.kind for entry in loaded.entries] == ["commit", "bump", "day"]
        assert loaded.entries[0].rng_state == rng_state
        np.testing.assert_array_equal(loaded.entries[2].indices, [7])

    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    def test_replay_restores_bit_identical(self, mode):
        rng = np.random.default_rng(11)
        state = PopularityState.from_config(COMMUNITY, rng, mode=mode)
        state.set_awareness((np.arange(state.n) % 4).astype(float))
        checkpoint = ShardCheckpoint.capture(state, day=0)
        journal = FeedbackJournal()
        batches = [
            (np.array([1, 2, 1]), np.array([1.0, 2.0, 1.0])),
            (np.array([10, 50]), np.array([3.0, 1.0])),
        ]
        apply_journaled_batches(state, journal, batches, rng=rng)
        state.bump_version()
        journal.append_bump()
        expected = state_digest(state, 0)

        restored = checkpoint.restore_state()
        journal.replay(restored)
        assert state_digest(restored, 0) == expected

    @pytest.mark.parametrize(
        "backend",
        ["numpy", pytest.param("numba", marks=needs_numba)],
    )
    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    def test_replay_parity_across_backends(self, backend, mode):
        with use_backend(backend):
            rng = np.random.default_rng(5)
            state = PopularityState.from_config(COMMUNITY, rng, mode=mode)
            state.set_awareness((np.arange(state.n) % 3).astype(float))
            checkpoint = ShardCheckpoint.capture(state, day=0)
            journal = FeedbackJournal()
            apply_journaled_batches(
                state,
                journal,
                [(np.array([0, 1, 2]), np.array([1.0, 1.0, 4.0]))],
                rng=rng,
            )
            restored = checkpoint.restore_state()
            journal.replay(restored)
            assert state_digest(restored, 0) == state_digest(state, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=COMMUNITY.n_pages - 1),
                    st.floats(min_value=0.25, max_value=4.0),
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        ),
        mode=st.sampled_from(["fluid", "stochastic"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_replay_parity_property(self, batches, mode, seed):
        """Any journaled batch sequence replays to the exact same digest."""
        rng = np.random.default_rng(seed)
        state = PopularityState.from_config(COMMUNITY, rng, mode=mode)
        checkpoint = ShardCheckpoint.capture(state, day=0)
        journal = FeedbackJournal()
        arrays = [
            (
                np.array([pair[0] for pair in batch], dtype=int),
                np.array([pair[1] for pair in batch]),
            )
            for batch in batches
        ]
        apply_journaled_batches(state, journal, arrays, rng=rng)
        restored = checkpoint.restore_state()
        journal.replay(restored)
        assert state_digest(restored, 0) == state_digest(state, 0)


# ------------------------------------------------------------- degradation


class TestDegradation:
    def test_policy_validation_and_escalation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(base_staleness_budget=-1)
        with pytest.raises(ValueError):
            DegradationPolicy(base_staleness_budget=8, max_staleness_budget=4)
        policy = DegradationPolicy(
            base_staleness_budget=4, escalation_step=2, max_staleness_budget=9
        )
        assert [policy.budget(i) for i in (1, 2, 3, 4, 50)] == [4, 6, 8, 9, 9]
        with pytest.raises(ValueError):
            policy.budget(0)

    def test_degraded_serve_then_load_shed(self):
        router = make_router()
        query = query_for_shard(router, 0)
        plan = FaultPlan(
            events=(FaultEvent(kind="crash", at_query=2, shard=0, duration=50),)
        )
        router.enable_robustness(
            plan,
            degradation=DegradationPolicy(
                base_staleness_budget=0,
                escalation_step=0,
                max_staleness_budget=0,
            ),
            seed=0,
        )
        fresh = router.serve(query, k=5)  # up: records last-known-good
        degraded = router.serve(query, k=5)  # crash fired; staleness 0 passes
        np.testing.assert_array_equal(fresh, degraded)
        # Buffered feedback counts toward staleness: budget 0 now sheds.
        router.submit_feedback(query, page_index=1)
        with pytest.raises(LoadShedError):
            router.serve(query, k=5)
        supervisor = router.robustness.supervisors[0]
        assert supervisor.degraded_serves == 1
        assert supervisor.load_sheds == 1

    def test_unknown_k_is_shed_immediately(self):
        router = make_router()
        query = query_for_shard(router, 0)
        plan = FaultPlan(
            events=(FaultEvent(kind="crash", at_query=1, shard=0, duration=50),)
        )
        router.enable_robustness(plan, seed=0)
        with pytest.raises(LoadShedError, match="no last-known-good"):
            router.serve(query, k=5)

    def test_flush_skips_downed_shard_backpressure(self):
        router = make_router()
        query_down = query_for_shard(router, 0)
        query_up = query_for_shard(router, 1)
        plan = FaultPlan(
            events=(FaultEvent(kind="crash", at_query=1, shard=0, duration=500),)
        )
        router.enable_robustness(plan, seed=0)
        router.serve(query_up, k=5)  # fires the crash on shard 0
        router.submit_feedback(query_down, page_index=1)
        router.submit_feedback(query_up, page_index=1)
        report = router.flush_feedback()
        # Shard 1 committed; shard 0's buffer is held until recovery.
        assert report.committed == 1
        assert len(router._pending_indices[0]) == 1
        assert len(router._pending_indices[1]) == 0


# ---------------------------------------------------------- cache poisoning


class TestCachePoison:
    def test_poison_versions_forces_revalidation(self):
        cache = ResultPageCache(capacity=4, staleness_budget=10)
        cache.store("key", np.array([1, 2, 3]), version=5)
        assert cache.lookup("key", current_version=5) is not None
        cache.poison_versions(POISON_VERSION)
        # The poisoned stamp is so old no finite budget can accept it.
        assert cache.lookup("key", current_version=5) is None

    def test_exact_boundary_staleness(self):
        cache = ResultPageCache(capacity=4, staleness_budget=2)
        cache.store("key", np.array([1, 2]), version=10)
        assert cache.lookup("key", current_version=12) is not None  # == budget
        cache.store("key", np.array([1, 2]), version=10)
        assert cache.lookup("key", current_version=13) is None  # budget + 1

    def test_invalidate_under_conflict(self):
        """A version bumped by a concurrent writer evicts within budget 0."""
        router = make_router(cache_capacity=4, staleness_budget=0)
        query = query_for_shard(router, 0)
        router.serve(query, k=5)
        engine = router.engines[0]
        hits_before = engine.cache.stats.hits
        router.serve(query, k=5)
        assert engine.cache.stats.hits == hits_before + 1
        engine.state.bump_version()  # concurrent writer commits elsewhere
        router.serve(query, k=5)
        assert engine.cache.stats.hits == hits_before + 1  # stale, recomputed

    def test_poison_event_end_to_end(self):
        router = make_router(cache_capacity=4, staleness_budget=10)
        query = query_for_shard(router, 0)
        plan = FaultPlan(
            events=(FaultEvent(kind="poison", at_query=2, shard=0),)
        )
        router.enable_robustness(plan, seed=0)
        router.serve(query, k=5)  # miss; page cached
        engine = router.engines[0]
        stale_before = engine.cache.stats.stale_evictions
        router.serve(query, k=5)  # poison fires: hit becomes stale eviction
        assert engine.cache.stats.stale_evictions == stale_before + 1
        assert router.faults.poisons_applied == 1


# ----------------------------------------------------------- engine checks


class TestConstructionValidation:
    def test_engine_rejects_mismatched_state(self):
        state = PopularityState.from_config(COMMUNITY.scaled(100))
        with pytest.raises(ValueError, match="100 pages"):
            ServingEngine(COMMUNITY, state=state)

    def test_router_rejects_bad_serving_knobs(self):
        with pytest.raises(ValueError, match="cache_capacity"):
            make_router(cache_capacity=0)
        with pytest.raises(ValueError, match="staleness_budget"):
            make_router(staleness_budget=-1)


# ----------------------------------------------------- telemetry lifecycle


class TestRecorderLifecycle:
    def test_context_manager_flushes_on_exception(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with pytest.raises(RuntimeError, match="mid-stream"):
            with TelemetryRecorder(window=64, out=str(path)) as recorder:
                for _ in range(5):
                    recorder.record_query(0)
                raise RuntimeError("mid-stream")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        # The partial window (5 < 64 queries) still reached the file.
        assert rows
        assert rows[-1]["queries"] == 5.0

    def test_close_is_idempotent(self):
        recorder = TelemetryRecorder(window=16)
        recorder.record_query(0)
        recorder.close()
        rows_after_first_close = len(recorder.rows)
        recorder.close()
        assert len(recorder.rows) == rows_after_first_close

    def test_caller_owned_handle_not_closed(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with open(path, "w") as handle:
            with TelemetryRecorder(window=8, out=handle) as recorder:
                recorder.record_query(0)
            assert not handle.closed  # flushed, but still the caller's


# ------------------------------------------------------------- chaos bench


class TestChaosBench:
    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    def test_recovery_is_bit_identical(self, mode):
        report = run_chaos_benchmark(
            n_pages=2_000,
            n_queries=640,
            n_shards=2,
            flush_every=64,
            mode=mode,
            seed=3,
        )
        assert report["fault_crashes"] == 1.0
        assert report["recoveries"] >= 1.0
        assert report["recovery_bit_identical"] == 1.0
        assert report["clean_parity"] == 1.0
        assert report["dead_letter_events"] == 0.0
        assert report["occ_conflicts"] > 0
        assert report["degraded_serves"] > 0
        assert report["degraded_serve_recovery_ratio"] == 1.0

    @pytest.mark.parametrize(
        "backend",
        ["numpy", pytest.param("numba", marks=needs_numba)],
    )
    def test_recovery_parity_across_backends(self, backend):
        with use_backend(backend):
            report = run_chaos_benchmark(
                n_pages=2_000,
                n_queries=640,
                n_shards=2,
                flush_every=64,
                seed=3,
            )
        assert report["kernel_backend"] == backend
        assert report["recovery_bit_identical"] == 1.0
        assert report["clean_parity"] == 1.0

    def test_report_is_deterministic(self):
        kwargs = dict(n_pages=2_000, n_queries=640, n_shards=2, seed=9)
        first = run_chaos_benchmark(**kwargs)
        second = run_chaos_benchmark(**kwargs)
        timing_keys = {"elapsed_seconds", "qps", "recovery_seconds"}
        for key in first:
            if key in timing_keys or key.startswith("telemetry_"):
                continue
            assert first[key] == second[key], key

    def test_disabled_faults_leave_serving_untouched(self):
        """enable + disable returns the router to the no-op hot path."""
        router = make_router()
        router.enable_robustness(FaultPlan(), seed=0)
        router.disable_robustness()
        query = query_for_shard(router, 0)
        router.serve(query, k=5)
        assert router.robustness.supervisors is None
        assert not router.faults.enabled
