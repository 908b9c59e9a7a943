"""Tests for the batched serving-replay sweep engine.

The load-bearing property is **row parity**: every variant replayed by the
lockstep :class:`ServingSweep` must produce a bit-identical
:class:`TraceReplayResult` to replaying that variant alone through the
per-query ground-truth loop (:func:`repro.simulation.replay.replay_trace`)
at equal seeds — served pages, clicked pages, cache counters, routing
counters, final awareness state and version stamps.  The rest covers the
trace recording, the grid helpers and the multi-process variant sharding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import CommunityConfig
from repro.serving.sweep import (
    ServingSweep,
    SweepVariant,
    build_variant_router,
    parse_grid_values,
    run_sweep,
    run_sweep_benchmark,
    variant_grid,
    variant_seed,
)
from repro.serving.workload import (
    RecordedTrace,
    StreamingWorkload,
    WorkloadConfig,
    record_trace,
)
from repro.simulation.replay import replay_trace


@pytest.fixture
def sweep_community():
    return CommunityConfig(
        n_pages=240,
        n_users=60,
        monitored_fraction=0.3,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=40.0,
    )


def make_trace(n_queries=160, flush_every=16, feedback_rate=0.4,
               day_every=None, seed=7):
    workload = StreamingWorkload(
        WorkloadConfig(
            n_distinct_queries=40,
            zipf_exponent=1.1,
            k=10,
            feedback_rate=feedback_rate,
            flush_every=flush_every,
        ),
        seed=seed,
    )
    return record_trace(workload, n_queries, day_every=day_every)


def assert_row_parity(community, variants, trace, seed=3):
    """Every sweep row must equal its standalone replay, bit for bit."""
    results = ServingSweep(community, variants, seed=seed).run(trace)
    for index, variant in enumerate(variants):
        router = build_variant_router(
            community, variant, variant_seed(seed, index)
        )
        reference = replay_trace(router, trace, variant.k)
        assert results[index].matches(reference), (
            "sweep row %d (%s) diverged from its standalone replay"
            % (index, variant.label())
        )
    return results


# ------------------------------------------------------------------ parity


@pytest.mark.parametrize("mode", ["fluid", "stochastic"])
def test_row_parity_across_variant_shapes(sweep_community, mode):
    """Cache budgets, shard counts, rules and the per-query fallback."""
    variants = [
        SweepVariant(k=10, r=0.1, rule="selective", cache_capacity=16,
                     staleness_budget=0, n_shards=1, mode=mode),
        SweepVariant(k=5, r=0.2, rule="uniform", cache_capacity=8,
                     staleness_budget=2, n_shards=3, mode=mode),
        SweepVariant(k=10, r=0.0, rule="none", cache_capacity=None,
                     n_shards=2, mode=mode),
        SweepVariant(k=7, r=0.3, rule="selective", cache_capacity=None,
                     n_shards=1, mode=mode),  # uncached randomized: per-query
        SweepVariant(k=12, r=0.05, rule="selective", promote_k=3,
                     cache_capacity=4, staleness_budget=1, n_shards=2,
                     mode=mode),
    ]
    assert_row_parity(sweep_community, variants, make_trace())


def test_cache_invalidation_mid_replay(sweep_community):
    """Version-stamped entries go stale as feedback flushes land.

    With budget 0 every flushed window invalidates the cached page
    (validate-on-read eviction); with a budget of 3 most flushes are
    absorbed.  Both must stay bit-identical to the standalone replay, and
    the strict variant must observe strictly more stale evictions.
    """
    variants = [
        SweepVariant(k=8, r=0.1, cache_capacity=16, staleness_budget=0),
        SweepVariant(k=8, r=0.1, cache_capacity=16, staleness_budget=3),
    ]
    results = assert_row_parity(
        sweep_community, variants, make_trace(n_queries=240)
    )
    strict, lenient = results
    assert strict.stats["cache_stale_evictions"] > 0
    assert (
        strict.stats["cache_stale_evictions"]
        > lenient.stats["cache_stale_evictions"]
    )
    assert lenient.stats["cache_hit_rate"] > strict.stats["cache_hit_rate"]


def test_lifecycle_days_invalidate_mid_replay(sweep_community):
    """Lifecycle days replace pages mid-replay; parity must survive them."""
    variants = [
        SweepVariant(k=8, r=0.1, cache_capacity=16, staleness_budget=0),
        SweepVariant(k=8, r=0.1, cache_capacity=16, staleness_budget=4,
                     n_shards=2),
    ]
    trace = make_trace(n_queries=200, day_every=48)
    results = assert_row_parity(sweep_community, variants, trace)
    assert all(
        version > 0 for result in results for version in result.final_versions
    )


def test_shard_boundary_feedback_batching(sweep_community):
    """Feedback crossing shard boundaries lands on the right lane.

    With three shards the recorded clicks scatter across lanes; the sweep
    buffers them per lane without rehashing.  Beyond bit-parity with the
    standalone router (which *does* rehash per event), the shards that
    received feedback must be exactly the shards whose popularity state
    advanced.
    """
    variant = SweepVariant(k=6, r=0.1, cache_capacity=8,
                           staleness_budget=0, n_shards=3)
    trace = make_trace(n_queries=200, flush_every=10)
    sweep = ServingSweep(sweep_community, [variant], seed=5)
    result = sweep.run(trace)[0]

    router = build_variant_router(
        sweep_community, variant, variant_seed(5, 0)
    )
    reference = replay_trace(router, trace, variant.k)
    assert result.matches(reference)
    assert result.feedback_events > 0
    assert result.stats["feedback_buffered"] == result.feedback_events
    # Every shard that saw a version bump matches the standalone replay's
    # notion of which shards received feedback batches.
    assert result.final_versions == reference.final_versions
    assert sum(result.final_versions) > 0


def test_sweep_handles_query_free_and_empty_windows(sweep_community):
    """Flush boundaries beyond the stream end and tiny traces are safe."""
    variants = [SweepVariant(k=5, cache_capacity=8)]
    # Fewer queries than one flush window.
    assert_row_parity(sweep_community, variants, make_trace(n_queries=9))
    # Zero-query trace: nothing served, nothing flushed.
    empty = make_trace(n_queries=0)
    results = ServingSweep(sweep_community, variants, seed=3).run(empty)
    assert results[0].queries == 0
    assert results[0].feedback_events == 0


def test_row_parity_with_ragged_page_lengths():
    """Shards of 46 and 45 pages clamp k=46 to different page lengths."""
    community = CommunityConfig(
        n_pages=91,
        n_users=30,
        monitored_fraction=0.4,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=30.0,
    )
    variants = [
        SweepVariant(k=46, r=0.2, cache_capacity=8, staleness_budget=1,
                     n_shards=2),
        SweepVariant(k=46, r=0.0, cache_capacity=8, n_shards=2),
    ]
    sweep = ServingSweep(community, variants, seed=4)
    assert [engine.state.n for engine in sweep.routers[0].engines] == [46, 45]
    assert_row_parity(community, variants, make_trace(feedback_rate=0.6), seed=4)


# -------------------------------------------------------------- hypothesis


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=30),
    r=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
    rule=st.sampled_from(["none", "uniform", "selective"]),
    promote_k=st.integers(min_value=1, max_value=4),
    cache=st.sampled_from([None, 1, 8]),
    budget=st.integers(min_value=0, max_value=3),
    shards=st.integers(min_value=1, max_value=3),
    mode=st.sampled_from(["fluid", "stochastic"]),
    flush_every=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_single_sweep_row_equals_standalone_replay(
    k, r, rule, promote_k, cache, budget, shards, mode, flush_every, seed
):
    """Property: an arbitrary variant's sweep row is its standalone replay."""
    community = CommunityConfig(
        n_pages=90,
        n_users=30,
        monitored_fraction=0.4,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=30.0,
    )
    variant = SweepVariant(
        k=k, r=r, rule=rule, promote_k=promote_k, cache_capacity=cache,
        staleness_budget=budget, n_shards=shards, mode=mode,
    )
    trace = make_trace(
        n_queries=60, flush_every=flush_every, feedback_rate=0.5, seed=seed
    )
    result = ServingSweep(community, [variant], seed=seed).run(trace)[0]
    router = build_variant_router(community, variant, variant_seed(seed, 0))
    reference = replay_trace(router, trace, variant.k)
    assert result.matches(reference)


# ------------------------------------------------------- grids and plumbing


def test_variant_grid_shape_and_determinism():
    grid = variant_grid()
    assert len(grid) == 32
    assert grid == variant_grid()  # deterministic order, same configs
    assert len({variant.label() for variant in grid}) == 32
    small = variant_grid(ks=(5,), rs=(0.0,), staleness_budgets=(0,),
                         shard_counts=(1, 2), cache_capacity=None)
    assert [variant.n_shards for variant in small] == [1, 2]
    assert all(variant.effective_cache_capacity is None for variant in small)
    with pytest.raises(ValueError):
        variant_grid(rule="bogus")


def test_parse_grid_values():
    assert parse_grid_values("10,20") == [10, 20]
    assert parse_grid_values(" 0.0, 0.1 ", float) == [0.0, 0.1]
    with pytest.raises(ValueError):
        parse_grid_values(" , ")


def test_variant_validation():
    with pytest.raises(ValueError):
        SweepVariant(k=0)
    with pytest.raises(ValueError):
        SweepVariant(rule="bogus")
    assert SweepVariant(cache_capacity=0).effective_cache_capacity is None


def test_variant_seed_stable_per_index():
    a = variant_seed(3, 1)
    b = variant_seed(3, 1)
    assert np.random.default_rng(a).random() == np.random.default_rng(b).random()
    assert (
        np.random.default_rng(variant_seed(3, 1)).random()
        != np.random.default_rng(variant_seed(3, 2)).random()
    )
    # The warm-awareness stream (entropy + (1,)) is independent of the
    # construction stream.
    warm = np.random.SeedSequence(entropy=(3, 1, 1))
    assert (
        np.random.default_rng(warm).random()
        != np.random.default_rng(variant_seed(3, 1)).random()
    )


def test_record_trace_reproducible_and_validated():
    trace_a = make_trace(seed=9)
    trace_b = make_trace(seed=9)
    np.testing.assert_array_equal(trace_a.query_ids, trace_b.query_ids)
    np.testing.assert_array_equal(trace_a.coin_u, trace_b.coin_u)
    np.testing.assert_array_equal(trace_a.position_u, trace_b.position_u)
    assert trace_a.n_queries == 160
    with pytest.raises(ValueError):
        record_trace(StreamingWorkload(seed=1), 10, seed=2)
    with pytest.raises(ValueError):
        record_trace(n_queries=-1)
    with pytest.raises(ValueError):
        RecordedTrace(
            query_ids=np.arange(4), coin_u=np.zeros(3), position_u=np.zeros(4)
        )


def test_trace_boundaries():
    trace = RecordedTrace(
        query_ids=np.arange(10), coin_u=np.zeros(10), position_u=np.zeros(10),
        flush_every=4, day_every=6,
    )
    assert list(trace.boundaries()) == [4, 6, 8, 10]
    empty = RecordedTrace(
        query_ids=np.zeros(0, dtype=int), coin_u=np.zeros(0),
        position_u=np.zeros(0), flush_every=4,
    )
    assert list(empty.boundaries()) == []


def test_run_sweep_worker_sharding_identical(sweep_community):
    """Process-sharded sweeps return the same per-variant results."""
    variants = variant_grid(ks=(5,), rs=(0.0, 0.1), staleness_budgets=(0,),
                            shard_counts=(1, 2), cache_capacity=8)
    trace = make_trace(n_queries=80)
    single = run_sweep(sweep_community, variants, trace, seed=2, n_workers=1)
    sharded = run_sweep(sweep_community, variants, trace, seed=2, n_workers=2)
    assert len(single.results) == len(sharded.results) == len(variants)
    for ours, theirs in zip(single.results, sharded.results, strict=True):
        assert ours.matches(theirs)
    assert single.queries == trace.n_queries
    assert single.total_queries == trace.n_queries * len(variants)
    assert single.queries_per_second > 0
    rows = single.rows()
    assert len(rows) == len(variants)
    assert {"k", "r", "n_shards", "pages_crc"} <= set(rows[0])
    assert "sweep over" in single.render()


def test_run_sweep_rejects_empty_variants(sweep_community):
    with pytest.raises(ValueError):
        run_sweep(sweep_community, [], make_trace(n_queries=10))
    with pytest.raises(ValueError):
        ServingSweep(sweep_community, [])


def test_sweep_benchmark_smoke():
    """The benchmark driver reports parity and sane metrics at tiny scale."""
    report = run_sweep_benchmark(
        n_pages=300,
        n_queries=120,
        variants=variant_grid(ks=(5,), rs=(0.0, 0.1), staleness_budgets=(0,),
                              shard_counts=(1,), cache_capacity=8),
        seed=1,
        sweep_repetitions=1,
    )
    assert report["parity_bit_identical"] == 1.0
    assert report["replicates"] == 2.0
    assert report["queries_per_second_sweep"] > 0
    assert report["feedback_events_total"] > 0
