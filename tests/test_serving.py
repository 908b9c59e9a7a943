"""Tests for the online serving subsystem.

The load-bearing property is serving/offline *parity*: replaying simulated
days through a :class:`ServingEngine` (cache off, equal seeds) must produce
bit-identical visit allocations to the :class:`Simulator`, in both fluid
and stochastic modes.  The rest covers the incremental state, the
version-stamped cache, the sharded router and the workload generator.
"""

import copy
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.serving.engine as engine_module
from repro.community import CommunityConfig, PagePool
from repro.core.batch_rank import batched_deterministic_order
from repro.core.kernels import merge_repair
from repro.core.policy import (
    DETERMINISTIC_POLICY,
    RECOMMENDED_POLICY,
    RankPromotionPolicy,
)
from repro.serving import (
    PopularityState,
    ResultPageCache,
    ServingEngine,
    ShardedRouter,
    StreamingWorkload,
    WorkloadConfig,
    run_stream,
)
from repro.serving.config import ServingConfig, build_router
from repro.serving.router import SHARD_MEMO_LIMIT, stable_shard_hash
from repro.serving.state import sum_by_page
from repro.simulation import SimulationConfig, Simulator, replay_day


@pytest.fixture
def serving_community():
    return CommunityConfig(
        n_pages=250,
        n_users=50,
        monitored_fraction=0.3,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=40.0,
    )


# ----------------------------------------------------------------- parity


@pytest.mark.parametrize("mode", ["fluid", "stochastic"])
@pytest.mark.parametrize(
    "policy",
    [RECOMMENDED_POLICY, DETERMINISTIC_POLICY, RankPromotionPolicy("uniform", k=2, r=0.2)],
)
def test_replay_day_matches_simulator(serving_community, mode, policy):
    """One replayed day (and the next 24) allocate visits identically."""
    seed = 1234
    simulator = Simulator(
        serving_community,
        policy.build_ranker(),
        SimulationConfig(warmup_days=1, measure_days=1, mode=mode, seed=seed),
    )
    engine = ServingEngine(serving_community, policy, mode=mode, seed=seed)
    for day in range(25):
        expected = simulator.step()
        observed = replay_day(engine)
        np.testing.assert_array_equal(expected, observed, err_msg="day %d" % day)
    np.testing.assert_array_equal(
        simulator.pool.aware_count, engine.state.pool.aware_count
    )
    np.testing.assert_array_equal(simulator.pool.page_ids, engine.state.pool.page_ids)
    assert simulator.day == engine.day


def test_replay_day_ignores_cache(serving_community):
    """The parity path never reads or writes the result cache."""
    cache = ResultPageCache(capacity=4)
    engine = ServingEngine(serving_community, cache=cache, seed=0)
    replay_day(engine)
    assert cache.stats.lookups == 0
    assert len(cache) == 0


# ------------------------------------------------------------------ state


def test_state_version_monotone_and_dirty_tracking(serving_community):
    state = PopularityState.from_config(serving_community, rng=0)
    assert state.version == 0
    state.apply_visits_at(np.array([3, 7, 3]), np.array([1.0, 2.0, 1.0]))
    assert state.version == 1
    dirty = state.consume_dirty()
    assert set(dirty) == {3, 7}
    assert state.consume_dirty().size == 0  # consumed exactly once
    state.pool.replace_pages(np.array([7]), now=1.0)
    state.note_replaced(np.array([7]))
    assert state.version == 2
    assert state.popularity[7] == 0.0
    assert set(state.consume_dirty()) == {7}


def test_state_sparse_update_matches_full_vector(serving_community):
    """O(batch) sparse updates equal the full-vector fluid update."""
    sparse = PopularityState.from_config(serving_community, rng=5)
    full = PopularityState.from_config(serving_community, rng=5)
    visits = np.zeros(sparse.n)
    visits[[2, 9, 100]] = [4.0, 1.0, 2.5]
    sparse.apply_visits_at(np.array([2, 9, 100]), np.array([4.0, 1.0, 2.5]))
    full.apply_visit_feedback(visits)
    np.testing.assert_allclose(sparse.pool.aware_count, full.pool.aware_count)
    np.testing.assert_allclose(sparse.popularity, full.popularity)


def test_state_popularity_cache_consistent(serving_community):
    state = PopularityState.from_config(serving_community, rng=2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        idx = rng.integers(0, state.n, size=8)
        state.apply_visits_at(idx, np.ones(8))
    np.testing.assert_allclose(state.popularity, state.pool.popularity)


def _sum_by_page_reference(indices, visits):
    """The dedupe ``sum_by_page`` replaced: unique, zeros, ``np.add.at``."""
    touched, inverse = np.unique(indices, return_inverse=True)
    summed = np.zeros(touched.size)
    with np.errstate(all="ignore"):  # overflow and inf - inf are in the domain
        np.add.at(summed, inverse, visits)
    return touched, summed


_VISIT_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1e-16, 1e16, -1e16, np.inf, -np.inf, np.nan]),
)


@settings(max_examples=300, deadline=None)
@given(
    events=st.lists(st.tuples(st.integers(-4, 4), _VISIT_VALUES), max_size=80),
    wide=st.booleans(),
)
# One page 17 times: sequential adds give 1.0, a pairwise sum 1.0000000000000016.
@example(events=[(3, 1.0)] + [(3, 1e-16)] * 16, wide=True)
@example(events=[(2, -0.0), (-1, -0.0), (2, -0.0)], wide=False)
@example(events=[], wide=False)
def test_sum_by_page_matches_unique_add_at_bytes(events, wide):
    """Byte-equal to the np.unique + np.add.at dedupe, dtype included."""
    dtype = np.int64 if wide else np.int32
    indices = np.array([page for page, _ in events], dtype=dtype)
    visits = np.array([value for _, value in events], dtype=float)
    touched, summed = sum_by_page(indices, visits)
    expected_touched, expected_summed = _sum_by_page_reference(indices, visits)
    assert touched.dtype == expected_touched.dtype == dtype
    assert summed.dtype == expected_summed.dtype
    assert touched.tobytes() == expected_touched.tobytes()
    assert summed.tobytes() == expected_summed.tobytes()


def test_sum_by_page_adds_each_page_in_batch_order():
    """Visits of a page add one at a time onto 0.0, never pairwise."""
    visits = np.array([1.0] + [1e-16] * 16 + [-0.0])
    indices = np.array([5] * 17 + [2])
    touched, summed = sum_by_page(indices, visits)
    assert touched.tolist() == [2, 5]
    assert summed[0] == 0.0 and not np.signbit(summed[0])  # -0.0 sums to +0.0
    assert summed[1] == 1.0 != np.sum(visits[:17])


# ----------------------------------------------------------------- engine


def test_top_k_returns_distinct_valid_pages(serving_community):
    engine = ServingEngine(serving_community, RECOMMENDED_POLICY, seed=3)
    for k in (1, 5, 50, 250, 400):
        page = engine.top_k(k)
        expected = min(k, serving_community.n_pages)
        assert page.size == expected
        assert np.unique(page).size == expected
        assert page.min() >= 0 and page.max() < serving_community.n_pages


def test_deterministic_top_k_matches_full_sort(serving_community):
    """With distinct popularity values the maintained order is exact."""
    engine = ServingEngine(serving_community, DETERMINISTIC_POLICY, seed=4)
    rng = np.random.default_rng(7)
    # Distinct awareness counts -> distinct popularity (qualities distinct w.p. 1).
    engine.state.set_awareness(
        rng.permutation(engine.state.n) % engine.state.pool.monitored_population
    )
    page = engine.top_k(10)
    expected = np.argsort(-engine.state.popularity, kind="stable")[:10]
    np.testing.assert_array_equal(np.sort(engine.state.popularity[page])[::-1],
                                  engine.state.popularity[expected])


def test_incremental_repair_matches_full_resort(serving_community):
    """After feedback, the repaired order equals a from-scratch sort."""
    engine = ServingEngine(serving_community, DETERMINISTIC_POLICY, seed=8)
    rng = np.random.default_rng(11)
    for round_ in range(12):
        idx = rng.integers(0, engine.state.n, size=6)
        engine.apply_feedback(idx, rng.integers(1, 5, size=6).astype(float))
        engine.top_k(5)  # triggers the repair
        pop = engine.state.popularity
        served = pop[_full_order(engine)]
        assert np.all(np.diff(served) <= 1e-15), "order not descending, round %d" % round_
    assert engine.repairs >= 10
    assert engine.full_sorts == 1  # only the initial sort was a full one


# ------------------------------------------------------ lazy order repair

_LAZY_COMMUNITY = CommunityConfig(
    n_pages=96,
    n_users=40,
    monitored_fraction=0.25,
    visits_per_user_per_day=1.0,
    expected_lifetime_days=40.0,
)


def _full_order(engine):
    """The maintained order with its side list compacted into the base."""
    engine._compact()
    return engine._order


def _lazy_engine(levels, seed=0):
    """Selective engine with unit quality: popularity is awareness / m.

    Awareness levels are small integers, so popularity ties are common and
    level 0 puts a page in the selective pool.
    """
    engine = ServingEngine(_LAZY_COMMUNITY, RECOMMENDED_POLICY, seed=seed)
    engine.state.pool.quality[:] = 1.0
    engine.state.set_awareness(levels)
    engine._refresh_order()
    return engine


def _set_levels(engine, pages, levels):
    """One feedback batch: ``pages`` move to awareness ``levels``."""
    engine.state.pool.aware_count[pages] = levels
    engine.state.note_replaced(pages)


def _assert_prefixes_match(engine, eager):
    """Prefixes with and without the pool, and the compacted full order.

    The full order is compacted on a copy, so the engine's side list keeps
    growing across steps.
    """
    np.testing.assert_array_equal(_full_order(copy.deepcopy(engine)), eager)
    mask = engine._promoted_mask
    np.testing.assert_array_equal(
        mask, engine.state.pool.aware_count < 1.0 - 1e-9
    )
    np.testing.assert_array_equal(
        np.flatnonzero(engine._in_side), np.sort(engine._side)
    )
    unpromoted = eager[~mask[eager]]
    for need in (1, 3, 20, 50, eager.size):
        np.testing.assert_array_equal(engine._unpromoted_prefix(need), eager[:need])
        np.testing.assert_array_equal(
            engine._unpromoted_prefix(need, mask), unpromoted[:need]
        )


_N_LAZY = _LAZY_COMMUNITY.n_pages
_BATCH = st.lists(
    st.tuples(st.integers(0, _N_LAZY - 1), st.integers(0, 3)),
    min_size=1,
    max_size=10,
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("feedback"), _BATCH),
        st.tuples(st.just("compact"), _BATCH),
        st.tuples(st.just("resort"), st.integers(0, 2**16)),
        st.tuples(st.just("drop"), _BATCH),
    ),
    max_size=25,
)


@given(seed=st.integers(0, 2**16), divisor=st.sampled_from([1, 8, 64]), steps=_STEPS)
@settings(max_examples=60, deadline=None)
def test_lazy_repair_matches_eager_merge_repair(seed, divisor, steps):
    """The lazy engine reads the order successive ``merge_repair`` calls build.

    The eager reference starts from the engine's first sort and applies one
    ``merge_repair`` per refresh, or the engine's own full sort (same tie
    draws) when half the pages moved or the order was dropped.  Steps:
    feedback batches on quantised popularity (pages re-dirtied across
    repairs), a batch of n/2 or more pages, a repair that is forced to
    compact, and an order drop as crash recovery does it.  ``divisor`` 1
    never compacts on its own; 8 and 64 compact past 12 and 1 side pages.
    """
    n = _N_LAZY
    rng = np.random.default_rng(seed)
    with mock.patch.object(engine_module, "SIDE_LIST_DIVISOR", divisor):
        engine = _lazy_engine(rng.integers(0, 4, size=n).astype(float), seed)
        eager = engine._order.copy()
        for kind, arg in steps:
            if kind == "resort":
                moved = np.random.default_rng(arg)
                pages = moved.choice(n, size=n // 2 + arg % 8, replace=False)
                _set_levels(engine, pages, moved.integers(0, 4, pages.size))
            else:
                pages = np.array([page for page, _ in arg])
                _set_levels(engine, pages, np.array([level for _, level in arg]))
            if kind == "drop":
                engine.drop_order()
            dirty = np.flatnonzero(engine.state._dirty_mask)
            tie_rng = copy.deepcopy(engine.rng)
            repairs = engine.repairs
            if kind == "compact":
                with mock.patch.object(engine_module, "SIDE_LIST_DIVISOR", n + 1):
                    engine._refresh_order()
                assert engine._side.size == 0
            else:
                engine._refresh_order()
            pop = engine.state.popularity
            if kind == "drop" or dirty.size >= n // 2:
                eager = batched_deterministic_order(
                    pop[None, :], None, "random", [tie_rng]
                )[0]
                assert engine._side.size == 0
            else:
                eager, _ = merge_repair(eager, pop, dirty)
                assert engine.repairs == repairs + 1
            assert engine.rng.bit_generator.state == tie_rng.bit_generator.state
            assert engine._side.size <= n // divisor
            _assert_prefixes_match(engine, eager)


def test_lazy_repair_orders_equal_popularity_by_repair_epoch():
    """A tie reached in a later repair ranks after the earlier page.

    Page 50 reaches popularity 0.2 first and page 10 later: eager repairs
    put 50 first, so the side list must not fall back to index order.
    """
    n = _N_LAZY
    with mock.patch.object(engine_module, "SIDE_LIST_DIVISOR", 1):
        engine = _lazy_engine(np.zeros(n))
        eager = engine._order.copy()
        for page in (50, 10):
            _set_levels(engine, np.array([page]), np.array([2.0]))
            engine._refresh_order()
            eager, _ = merge_repair(eager, engine.state.popularity, np.array([page]))
        assert engine._side.tolist() == [50, 10]
        np.testing.assert_array_equal(eager[:2], [50, 10])
        np.testing.assert_array_equal(engine._unpromoted_prefix(2), [50, 10])
        np.testing.assert_array_equal(_full_order(engine), eager)


def test_selective_promotion_pool_tracked(serving_community):
    engine = ServingEngine(serving_community, RECOMMENDED_POLICY, seed=9)
    engine.top_k(5)
    np.testing.assert_array_equal(
        engine._promoted_mask, engine.state.pool.aware_count < 1.0 - 1e-9
    )
    engine.apply_feedback(np.arange(20), np.full(20, 50.0))
    engine.top_k(5)
    np.testing.assert_array_equal(
        engine._promoted_mask, engine.state.pool.aware_count < 1.0 - 1e-9
    )


def test_protected_prefix_never_promoted(serving_community):
    """With k_start > 1 the top slots always hold the popularity leaders."""
    policy = RankPromotionPolicy(rule="selective", k=3, r=0.5)
    engine = ServingEngine(serving_community, policy, seed=10)
    rng = np.random.default_rng(1)
    engine.state.set_awareness(
        rng.integers(1, engine.state.pool.monitored_population, size=engine.state.n).astype(float)
    )
    # All pages aware -> empty selective pool except none; force some zeros.
    leaders = np.argsort(-engine.state.popularity, kind="stable")[:2]
    for _ in range(20):
        page = engine.top_k(10)
        assert set(page[:2]) == set(leaders)


def test_cold_start_ties_not_pinned_to_index_order(serving_community):
    """Zero-awareness ties are served in random (per-engine) order, not 0..k-1."""
    pages = [
        ServingEngine(serving_community, DETERMINISTIC_POLICY, seed=s).top_k(5)
        for s in (1, 2, 3)
    ]
    assert any(not np.array_equal(pages[0], other) for other in pages[1:])
    assert not np.array_equal(pages[0], np.arange(5))


# ------------------------------------------------------------------ cache


def test_cache_hit_within_staleness_budget():
    cache = ResultPageCache(capacity=4, staleness_budget=2)
    page = np.array([1, 2, 3])
    cache.store("key", page, version=10)
    assert cache.lookup("key", current_version=10) is not None
    assert cache.lookup("key", current_version=12) is not None  # lag == budget
    assert cache.stats.hits == 2


def test_cache_stale_entry_evicted():
    cache = ResultPageCache(capacity=4, staleness_budget=2)
    cache.store("key", np.array([1]), version=10)
    assert cache.lookup("key", current_version=13) is None  # lag 3 > budget 2
    assert cache.stats.stale_evictions == 1
    assert len(cache) == 0


def test_cache_lru_eviction_order():
    cache = ResultPageCache(capacity=2, staleness_budget=0)
    cache.store("a", np.array([0]), 0)
    cache.store("b", np.array([1]), 0)
    cache.lookup("a", 0)  # refresh a
    cache.store("c", np.array([2]), 0)  # evicts b (least recently used)
    assert cache.lookup("b", 0) is None
    assert cache.lookup("a", 0) is not None
    assert cache.lookup("c", 0) is not None
    assert cache.stats.capacity_evictions == 1


def test_cache_staleness_boundary_exact():
    """Lag == budget is served; lag == budget + 1 evicts, precisely."""
    cache = ResultPageCache(capacity=4, staleness_budget=3)
    cache.store("key", np.array([7]), version=5)
    assert cache.lookup("key", current_version=8) is not None  # lag == budget
    assert cache.stats.stale_evictions == 0
    assert cache.lookup("key", current_version=9) is None  # budget + 1
    assert cache.stats.stale_evictions == 1
    assert len(cache) == 0


def test_cache_stats_survive_invalidate():
    """invalidate() drops entries but keeps the accumulated counters."""
    cache = ResultPageCache(capacity=4, staleness_budget=0)
    cache.store("key", np.array([1, 2]), version=0)
    assert cache.lookup("key", 0) is not None
    assert cache.lookup("missing", 0) is None
    hits, misses = cache.stats.hits, cache.stats.misses
    cache.invalidate()
    assert len(cache) == 0
    assert (cache.stats.hits, cache.stats.misses) == (hits, misses)
    assert cache.lookup("key", 0) is None  # entries gone, stats keep counting
    assert cache.stats.misses == misses + 1
    assert cache.stats.hit_rate == pytest.approx(
        cache.stats.hits / cache.stats.lookups
    )


def test_engine_serve_rejects_bad_k(serving_community):
    """serve() validates k before touching the cache (mirrors top_k)."""
    from repro.serving.engine import ServingEngine

    engine = ServingEngine(
        serving_community, cache=ResultPageCache(capacity=4), seed=0
    )
    with pytest.raises(ValueError, match="k must be >= 1"):
        engine.serve(0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        engine.top_k(-3)
    assert engine.cache.stats.lookups == 0  # no phantom miss was recorded


def test_engine_cache_key_is_shared_by_equal_k_values(serving_community):
    """``int(k)`` picks the memoized key: 20, 20.0 and np.int64(20) share one."""
    cache = ResultPageCache(capacity=8, staleness_budget=0)
    engine = ServingEngine(serving_community, cache=cache, seed=3)
    first = engine.serve(20)
    for k in (20.0, np.int64(20), 20):
        np.testing.assert_array_equal(engine.serve(k), first)
    assert (cache.stats.misses, cache.stats.hits, len(cache)) == (1, 3, 1)
    n = engine.state.n
    page = engine.serve(n + 5)  # clamped to the shard's pages
    assert page.size == n and np.unique(page).size == n
    np.testing.assert_array_equal(engine.serve(np.int64(n)), page)
    np.testing.assert_array_equal(engine.serve(float(n + 9)), page)
    assert (cache.stats.misses, cache.stats.hits, len(cache)) == (2, 5, 2)


def test_cached_pages_are_isolated_from_caller_mutation():
    cache = ResultPageCache(capacity=2, staleness_budget=0)
    original = np.array([5, 6, 7])
    cache.store("key", original, version=0)
    original[0] = 99  # caller mutates its own array after store
    np.testing.assert_array_equal(cache.lookup("key", 0), [5, 6, 7])
    with pytest.raises(ValueError):
        cache.lookup("key", 0)[0] = 1  # served hits are read-only


def test_engine_serves_from_cache_until_feedback(serving_community):
    cache = ResultPageCache(capacity=4, staleness_budget=0)
    engine = ServingEngine(serving_community, DETERMINISTIC_POLICY, cache=cache, seed=12)
    first = engine.serve(10)
    second = engine.serve(10)
    np.testing.assert_array_equal(first, second)
    assert cache.stats.hits == 1
    engine.apply_feedback(np.array([int(first[-1])]), np.array([25.0]))
    engine.serve(10)  # version advanced past budget -> recompute
    assert cache.stats.stale_evictions == 1


# ----------------------------------------------------------------- router


def test_router_stable_hashing(serving_community):
    router = ShardedRouter.from_community(
        serving_community, RECOMMENDED_POLICY, n_shards=4, seed=0
    )
    for query in ("q1", "q2", 42, ("tuple", 3)):
        assert router.shard_for(query) == router.shard_for(query)
    assert stable_shard_hash("q1") == stable_shard_hash("q1")
    shards = {router.shard_for("query-%d" % i) for i in range(200)}
    assert shards == set(range(4))  # every shard receives traffic


@functools.lru_cache(maxsize=1)
def _eight_shard_engines():
    return tuple(build_router(ServingConfig(n_pages=800, n_shards=8)).engines)


#: Ids that compare equal in groups yet have different reprs, so different
#: shards out of 8: 1/True/1.0/np.int64(1) -> 7/3/5/2, 0.0/-0.0 -> 2/7,
#: (1, True)/(1, 1) -> 1/6.
_ROUTED_IDS = (
    1, True, 1.0, np.int64(1), 0.0, -0.0, (1, True), (1, 1), None,
    "1", "query", "", 7, 2**70, -3, np.int64(-3), False, 0, "True",
)


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(_ROUTED_IDS))
def test_router_shard_memo_routes_like_the_hash(order):
    """The memo answers as the hash does, whichever id type comes first."""
    router = ShardedRouter(_eight_shard_engines())
    for query in list(order) * 2:
        assert router.shard_for(query) == stable_shard_hash(query) % 8, query
    ones = {router.shard_for(query) for query in (1, True, 1.0, np.int64(1))}
    assert len(ones) == 4
    assert router.shard_for(0.0) != router.shard_for(-0.0)
    assert router.shard_for((1, True)) != router.shard_for((1, 1))


def test_router_shard_memo_stays_bounded():
    router = ShardedRouter(_eight_shard_engines())
    for query in range(SHARD_MEMO_LIMIT + 100):
        router.shard_for(query)
        router.shard_for("q%d" % query)
    assert 0 < len(router._shard_memo) <= SHARD_MEMO_LIMIT
    for query in (5, "q5", SHARD_MEMO_LIMIT + 99):
        assert router.shard_for(query) == stable_shard_hash(query) % 8


def test_router_rejects_feedback_outside_the_shard():
    """A bad page index raises before it is counted or buffered."""
    router = build_router(ServingConfig(n_pages=400, n_shards=2))
    shard = router.shard_for("q")
    size = router.engines[shard].state.n
    page = router.serve("q", 5)
    router.submit_feedback("q", int(page[0]))
    for bad in (-1, size, size + 7):
        with pytest.raises(ValueError, match="outside shard"):
            router.submit_feedback("q", bad)
    assert router.feedback_buffered == 1
    assert router._pending_indices[shard] == [int(page[0])]
    last = router.engines[shard].state.pool.aware_count[size - 1]
    report = router.flush_feedback()  # the valid event still commits
    assert report.committed == 1 and report.dead_letter_events == 0
    assert router.engines[shard].state.pool.aware_count[size - 1] == last


def test_router_counts_only_accepted_queries():
    router = build_router(ServingConfig(n_pages=400, n_shards=2))
    with pytest.raises(ValueError, match="k must be >= 1"):
        router.serve("q", 0)
    assert router.queries_routed == 0 and router.queries_per_shard == [0, 0]
    assert router.cache_stats().lookups == 0
    router.serve("q", 3)
    assert router.queries_routed == 1
    assert router.queries_per_shard[router.shard_for("q")] == 1


def test_router_shard_sizes_sum_to_requested_pages(serving_community):
    """Non-divisible page counts are spread over shards, never dropped."""
    router = ShardedRouter.from_community(
        serving_community, RECOMMENDED_POLICY, n_shards=3, seed=0
    )
    assert router.n_pages == serving_community.n_pages
    sizes = [engine.state.n for engine in router.engines]
    assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        ShardedRouter.from_community(
            serving_community, RECOMMENDED_POLICY,
            n_shards=serving_community.n_pages + 1,
        )


def test_router_feedback_batched_until_flush(serving_community):
    router = ShardedRouter.from_community(
        serving_community, RECOMMENDED_POLICY, n_shards=2, cache_capacity=None, seed=1
    )
    before = [engine.state.version for engine in router.engines]
    page = router.serve("hot-query", 5)
    router.submit_feedback("hot-query", int(page[0]))
    router.submit_feedback("hot-query", int(page[1]))
    assert [e.state.version for e in router.engines] == before  # buffered only
    report = router.flush_feedback()
    assert report  # truthy: something committed
    assert report.committed == 2
    assert report.batches == 1
    assert report.conflicts == report.retries == report.dead_letter_events == 0
    shard = router.shard_for("hot-query")
    # One batch -> exactly one version bump on the target shard.
    assert router.engines[shard].state.version == before[shard] + 1


def test_router_from_community_validates_serving_knobs(serving_community):
    """Bad cache/staleness knobs fail at construction, not mid-serve."""
    with pytest.raises(ValueError):
        ShardedRouter.from_community(
            serving_community, RECOMMENDED_POLICY, cache_capacity=0
        )
    with pytest.raises(ValueError):
        ShardedRouter.from_community(
            serving_community, RECOMMENDED_POLICY, staleness_budget=-1
        )


def test_router_advance_day_flushes_and_ages(serving_community):
    router = ShardedRouter.from_community(
        serving_community, RECOMMENDED_POLICY, n_shards=2, seed=2
    )
    page = router.serve("q", 3)
    router.submit_feedback("q", int(page[0]))
    router.advance_day()
    assert all(engine.day == 1 for engine in router.engines)
    assert router.feedback_buffered == 1
    assert sum(len(buf) for buf in router._pending_indices) == 0


# --------------------------------------------------------------- workload


def test_workload_zipf_skew_and_determinism():
    workload_a = StreamingWorkload(
        WorkloadConfig(n_distinct_queries=100, zipf_exponent=1.2), seed=5
    )
    workload_b = StreamingWorkload(
        WorkloadConfig(n_distinct_queries=100, zipf_exponent=1.2), seed=5
    )
    draws_a = workload_a.sample_queries(5000)
    draws_b = workload_b.sample_queries(5000)
    np.testing.assert_array_equal(draws_a, draws_b)
    counts = np.bincount(draws_a, minlength=100)
    assert counts[0] > counts[10] > counts[90]  # head >> tail


def test_run_stream_rejects_conflicting_seed_and_workload(serving_community):
    router = ShardedRouter.from_community(
        serving_community, RECOMMENDED_POLICY, n_shards=1, seed=0
    )
    with pytest.raises(ValueError):
        run_stream(router, 10, workload=StreamingWorkload(seed=1), seed=2)
    with pytest.raises(ValueError):
        run_stream(router, -1)


def test_run_stream_end_to_end(serving_community):
    router = ShardedRouter.from_community(
        serving_community,
        RECOMMENDED_POLICY,
        n_shards=2,
        cache_capacity=8,
        staleness_budget=1,
        seed=3,
    )
    workload = StreamingWorkload(
        WorkloadConfig(n_distinct_queries=40, k=5, feedback_rate=0.5, flush_every=16),
        seed=4,
    )
    stats = run_stream(router, 300, workload=workload)
    assert stats.queries == 300
    assert stats.queries_per_second > 0
    assert stats.feedback_events > 0
    assert stats.extra["cache_hit_rate"] > 0.5
    assert stats.extra["flushes"] >= 1
