"""Tests for the backend-dispatched kernel layer (``repro.core.kernels``).

Three concerns live here:

* **dispatch** — registry resolution (explicit name, environment variable,
  process default), the hard error on unknown explicit names, and the
  import-guarded degradation: a requested-but-unavailable backend must fall
  back to numpy *silently* except for exactly one ``RuntimeWarning``;
* **numpy reference semantics** — the carved-out kernels must equal the
  pre-refactor inline passes (the day tail against the hand-chained
  reference ops, the merge repair against an independent ``lexsort``
  oracle, the grouped lane repair against the single-lane core, the
  one-sort-per-row tie repair and each of its fallbacks against
  ``lexsort`` and ``_deterministic_order``), plus a
  structural guarantee that the sweep's hot path repairs each lane
  through the serving engine's own lazy absorb step and never calls
  ``lane_repair``;
* **cross-backend bit parity** — when numba is installed, a Hypothesis
  property asserts that the numpy and numba backends produce bit-identical
  ``(R, n)`` day steps (fluid and stochastic) and bit-identical sweep rows
  at equal seeds, and per-kernel equality on random inputs.  Without
  numba these tests skip; CI runs them in the numba matrix leg.  On such
  hosts a stubbed ``njit`` runs every numba kernel body as plain Python
  against the numpy reference instead.
"""

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import CommunityConfig
from repro.core import kernels
from repro.core.kernels import get_backend, set_backend, use_backend
from repro.core.kernels.numpy_backend import BACKEND as NUMPY_BACKEND
from repro.core.kernels.numpy_backend import merge_repair
from repro.core.policy import RankPromotionPolicy
from repro.serving.state import PopularityState
from repro.serving.engine import ServingEngine
from repro.serving.sweep import (
    ServingSweep,
    SweepVariant,
    build_variant_router,
    variant_seed,
)
from repro.simulation import BatchSimulator, SimulationConfig
from repro.simulation.batch import run_batch
from repro.simulation.replay import replay_trace
from repro.utils.rng import spawn_rngs
from repro.visits.attention import PowerLawAttention
from repro.visits.surfing import MixedSurfingModel

HAVE_NUMBA = importlib.util.find_spec("numba") is not None

needs_numba = pytest.mark.skipif(
    not HAVE_NUMBA, reason="numba not installed (optional backend)"
)


@pytest.fixture(autouse=True)
def clean_dispatch(monkeypatch):
    """Isolate every test from ambient backend selection state."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    kernels._reset_dispatch_state()
    yield
    kernels._reset_dispatch_state()


def _kernel_community() -> CommunityConfig:
    # A plain helper (not a fixture): the Hypothesis properties below may
    # not mix @given with function-scoped fixtures.
    return CommunityConfig(
        n_pages=120,
        n_users=40,
        monitored_fraction=0.25,
        visits_per_user_per_day=1.0,
        expected_lifetime_days=30.0,
    )


@pytest.fixture
def kernel_community():
    return _kernel_community()


# ---------------------------------------------------------------- dispatch


class TestDispatch:
    def test_default_backend_is_numpy(self):
        assert get_backend().name == "numpy"
        assert get_backend("numpy") is NUMPY_BACKEND

    def test_unknown_explicit_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("cupy")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "numpy")
        assert get_backend().name == "numpy"

    def test_env_var_unknown_name_degrades_with_single_warning(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "banana")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert get_backend().name == "numpy"
        # Second resolution stays silent: the warning fires once per name.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert get_backend().name == "numpy"

    def test_missing_numba_degrades_silently_with_single_warning(self, monkeypatch):
        """The satellite contract: no numba => numpy, one warning, no crash."""
        monkeypatch.setitem(
            kernels._BACKEND_MODULES, "numba", ".does_not_exist"
        )
        monkeypatch.delitem(kernels._instances, "numba", raising=False)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            backend = get_backend("numba")
        assert backend.name == "numpy"
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert get_backend("numba").name == "numpy"
            # set_backend goes through the same fallback and pins numpy.
            assert set_backend("numba").name == "numpy"
            assert get_backend().name == "numpy"

    def test_set_and_use_backend_restore(self):
        assert set_backend("numpy").name == "numpy"
        with use_backend("numpy") as active:
            assert active is NUMPY_BACKEND
        assert get_backend().name == "numpy"

    def test_available_backends_always_lists_numpy(self):
        names = kernels.available_backends()
        assert names[0] == "numpy"
        assert ("numba" in names) == HAVE_NUMBA


# ------------------------------------------------- numpy reference parity


def _reference_day_tail(rankings, attention, surfing, popularity, rate, mode,
                        rngs, aware, m):
    """The pre-refactor inline day tail, kept verbatim as the test oracle."""
    from repro.community.page import awareness_gain_batch
    from repro.visits.allocation import (
        allocate_monitored_visits_batch,
        rank_visit_shares_batch,
    )

    shares = rank_visit_shares_batch(rankings, attention, surfing, popularity)
    monitored = allocate_monitored_visits_batch(shares, rate, mode, rngs)
    gained = awareness_gain_batch(aware, m, monitored, mode=mode, rngs=rngs)
    np.minimum(m, aware + np.asarray(gained, dtype=float), out=aware)
    return shares


class TestNumpyKernelSemantics:
    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    @pytest.mark.parametrize("surf_fraction", [0.0, 0.3])
    def test_day_tail_matches_inline_reference(self, mode, surf_fraction):
        rng = np.random.default_rng(5)
        R, n = 4, 60
        quality = rng.random((R, n))
        aware_a = np.floor(rng.random((R, n)) * 10)
        aware_b = aware_a.copy()
        m = 12
        popularity = aware_a / m * quality
        rankings = np.argsort(-popularity, axis=1)
        attention = PowerLawAttention()
        surfing = MixedSurfingModel(surfing_fraction=surf_fraction)
        rngs_a = spawn_rngs(3, R)
        rngs_b = spawn_rngs(3, R)

        reference = _reference_day_tail(
            rankings, attention, surfing, popularity, 7.0, mode,
            rngs_a, aware_a, m,
        )
        surf_shares = (
            surfing.surfing_shares_batch(popularity)
            if not surfing.is_pure_search
            else None
        )
        shares = NUMPY_BACKEND.day_tail(
            rankings,
            attention.visit_shares(n),
            7.0,
            mode,
            rngs_b,
            aware_b,
            m,
            surfing_fraction=surf_fraction,
            surf_shares=surf_shares,
        )
        np.testing.assert_array_equal(shares, reference)
        np.testing.assert_array_equal(aware_b, aware_a)

    def test_feedback_flush_matches_sequential_state_update(self):
        """apply_visits_at's kernel route equals the pre-refactor arithmetic."""
        from repro.community.page import awareness_gain

        rng = np.random.default_rng(9)
        n, m = 80, 15
        quality = rng.random(n)
        aware0 = np.floor(rng.random(n) * m)

        from repro.community.page import PagePool

        pool = PagePool(quality, m)
        pool.aware_count[:] = aware0
        state = PopularityState(pool, mode="fluid")
        indices = rng.integers(0, n, size=30)
        visits = rng.random(30) * 3
        state.apply_visits_at(indices, visits)

        # Pre-refactor reference on copies.
        aware = aware0.copy()
        touched, inverse = np.unique(indices, return_inverse=True)
        summed = np.zeros(touched.size)
        np.add.at(summed, inverse, visits)
        gained = awareness_gain(aware[touched], m, summed, mode="fluid")
        aware[touched] = np.minimum(m, aware[touched] + gained)

        np.testing.assert_array_equal(state.pool.aware_count, aware)
        np.testing.assert_array_equal(
            state.popularity, aware / m * quality
        )
        assert state.version == 1
        assert set(np.flatnonzero(state._dirty_mask)) == set(touched)

    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_merge_repair_matches_lexsort_oracle(self, seed, d):
        """Repaired orders equal an independent composite-key sort.

        The merge repair promises: keeps stay in relative order, moved
        pages re-enter *after* keeps of equal popularity, moved ties fall
        back to ascending page index.  That order is exactly a lexsort by
        ``(-popularity, is_moved, old-position-or-index)`` — an oracle
        that shares no code with the implementation.
        """
        rng = np.random.default_rng(seed)
        n = 50
        popularity = np.round(rng.random(n), 1)  # coarse grid forces ties
        tie = rng.random(n)
        order = np.lexsort((tie, -popularity))
        dirty = np.sort(rng.choice(n, size=min(d, n // 2 - 1) or 1, replace=False))
        popularity[dirty] = np.round(rng.random(dirty.size), 1)

        merged, _ = merge_repair(order, popularity, dirty)

        rank_of = np.empty(n, dtype=int)
        rank_of[order] = np.arange(n)
        is_moved = np.zeros(n, dtype=bool)
        is_moved[dirty] = True
        tiebreak = np.where(is_moved, np.arange(n), rank_of)
        oracle = np.lexsort((tiebreak, is_moved, -popularity))
        np.testing.assert_array_equal(merged, oracle)

    def test_lane_repair_matches_single_lane_core(self):
        rng = np.random.default_rng(11)
        n, lanes = 40, 5
        orders, pops, dirties = [], [], []
        for _ in range(lanes):
            pop = np.round(rng.random(n), 1)
            order = np.lexsort((rng.random(n), -pop))
            dirty = np.sort(rng.choice(n, size=6, replace=False))
            pop[dirty] = np.round(rng.random(6), 1)
            orders.append(order)
            pops.append(pop)
            dirties.append(dirty)
        repaired = get_backend().lane_repair(orders, pops, dirties)
        for lane in range(lanes):
            expected, _ = merge_repair(orders[lane], pops[lane], dirties[lane])
            np.testing.assert_array_equal(repaired[lane], expected)

    def test_sweep_repairs_go_through_the_engine_absorb_step(
        self, kernel_community, monkeypatch
    ):
        """Sweep lanes repair through ``ServingEngine._absorb``, not lane_repair.

        Every repair the sweep counts is one absorb call that repaired a
        dirty set lazily, and the sweep counts as many repairs as the
        variants' standalone replays do.  Every page the sweep computes
        comes from the engine's own ``top_k``: one call per cache miss.
        """
        from test_sweep import make_trace

        lazy = []
        computed = []
        absorb = ServingEngine._absorb
        top_k = ServingEngine.top_k

        def absorb_spy(engine, dirty):
            resort = absorb(engine, dirty)
            if dirty.size and not resort:
                lazy.append(dirty.size)
            return resort

        def top_k_spy(engine, k, rng=None):
            computed.append(k)
            return top_k(engine, k, rng)

        def lane_repair_spy(self, orders, popularity, dirty):
            raise AssertionError("the sweep called lane_repair")

        monkeypatch.setattr(ServingEngine, "_absorb", absorb_spy)
        monkeypatch.setattr(ServingEngine, "top_k", top_k_spy)
        monkeypatch.setattr(type(NUMPY_BACKEND), "lane_repair", lane_repair_spy)
        variants = [
            SweepVariant(k=8, r=0.1, cache_capacity=16, staleness_budget=0),
            SweepVariant(k=8, r=0.2, cache_capacity=16, staleness_budget=0),
            SweepVariant(k=8, r=0.3, cache_capacity=16, staleness_budget=0),
            SweepVariant(k=8, r=0.0, cache_capacity=16, staleness_budget=0),
        ]
        trace = make_trace(n_queries=200, flush_every=8)
        sweep = ServingSweep(kernel_community, variants, seed=3)
        sweep.run(trace)
        repairs = sum(
            engine.repairs for router in sweep.routers for engine in router.engines
        )
        assert repairs > 0, "workload produced no repairs"
        assert len(lazy) == repairs, "some repairs bypassed the absorb step"
        misses = sum(router.stats()["cache_misses"] for router in sweep.routers)
        assert misses > 0
        assert len(computed) == misses, "some pages bypassed ServingEngine.top_k"
        standalone = 0
        for index, variant in enumerate(variants):
            router = build_variant_router(
                kernel_community, variant, variant_seed(3, index)
            )
            replay_trace(router, trace, variant.k)
            standalone += sum(engine.repairs for engine in router.engines)
        assert repairs == standalone


# ------------------------------------------------------ kernel edge cases


class TestKernelEdgeCases:
    """n=0 / n=1 / R=1 degeneracy across the kernel surface."""

    def test_promotion_merge_empty_community_regression(self):
        """promotion_merge(n=0) used to raise IndexError; now returns empty."""
        backend = get_backend()
        perms = np.zeros((3, 0), dtype=np.intp)
        mask = np.zeros((3, 0), dtype=bool)
        rngs = spawn_rngs(0, 3)
        merged = backend.promotion_merge(perms, mask, 1, 0.5, rngs)
        assert merged.shape == (3, 0)
        # The sequential contract: an empty community consumes no draws.
        probe = rngs[0].random()
        assert probe == spawn_rngs(0, 3)[0].random()

    def test_promotion_merge_validates_r_and_k(self):
        backend = get_backend()
        perms = np.array([[1, 0]])
        mask = np.array([[True, False]])
        with pytest.raises(ValueError, match="r must be"):
            backend.promotion_merge(perms, mask, 1, 1.5, spawn_rngs(0, 1))
        with pytest.raises(ValueError, match="r must be"):
            backend.promotion_merge(perms, mask, 1, -0.1, spawn_rngs(0, 1))
        with pytest.raises(ValueError, match="k must be"):
            backend.promotion_merge(perms, mask, 0, 0.5, spawn_rngs(0, 1))

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 6),
        k=st.integers(1, 12),
        all_tied=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_promotion_merge_tiny_and_clamped_k_matches_sequential(
        self, seed, n, k, all_tied
    ):
        """k >= n clamps to the sequential merge's behaviour, bit for bit."""
        from repro.core.merge import randomized_merge

        rng = np.random.default_rng(seed)
        R = 2
        scores = np.full((R, n), 0.25) if all_tied else rng.random((R, n))
        perms = np.argsort(-scores, axis=1)
        mask = rng.random((R, n)) < 0.5
        batched = get_backend().promotion_merge(
            perms, mask, k, 0.4, spawn_rngs(seed, R)
        )
        rngs = spawn_rngs(seed, R)
        for row in range(R):
            by_rank = mask[row][perms[row]]
            deterministic = perms[row][~by_rank]
            promoted = perms[row][by_rank]
            if promoted.size == 0:
                expected = perms[row]
            else:
                expected = randomized_merge(
                    deterministic, promoted, k, 0.4, rngs[row]
                )
            np.testing.assert_array_equal(batched[row], expected)

    @pytest.mark.parametrize("tie_breaker", ["random", "age", "index"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_rank_day_degenerate_sizes(self, tie_breaker, n):
        backend = get_backend()
        scores = np.zeros((2, n))
        perm = backend.rank_day(scores, None, tie_breaker, spawn_rngs(0, 2))
        assert perm.shape == (2, n)

    def test_rank_day_all_tied_matches_lexsort(self):
        backend = get_backend()
        R, n = 2, 40
        scores = np.full((R, n), 0.5)
        rngs = spawn_rngs(4, R)
        perm = backend.rank_day(scores, None, "random", spawn_rngs(4, R))
        for row in range(R):
            tie_key = rngs[row].random(n)
            np.testing.assert_array_equal(
                perm[row], np.lexsort((tie_key, -scores[row]))
            )

    def test_rank_day_zero_age_short_circuits_to_index_order(self):
        """tie_breaker='age' with no ages equals the index rule exactly."""
        backend = get_backend()
        scores = np.round(np.random.default_rng(8).random((3, 30)), 1)
        by_age_none = backend.rank_day(scores, None, "age", spawn_rngs(0, 3))
        by_index = backend.rank_day(scores, None, "index", spawn_rngs(0, 3))
        by_zero_ages = backend.rank_day(
            scores, np.zeros((3, 30)), "age", spawn_rngs(0, 3)
        )
        np.testing.assert_array_equal(by_age_none, by_index)
        np.testing.assert_array_equal(by_age_none, by_zero_ages)

    @pytest.mark.parametrize("mode", ["fluid", "stochastic"])
    @pytest.mark.parametrize("R,n", [(1, 5), (2, 0), (2, 1), (9, 7)])
    def test_day_tail_degenerate_shapes(self, mode, R, n):
        """day_tail survives n=0 / n=1 / R=1 — and the blocked and plain
        chains agree on every such shape."""
        from repro.core.kernels.api import KernelBackend

        backend = get_backend()
        rng = np.random.default_rng(1)
        m = 10
        aware_blocked = np.floor(rng.random((R, n)) * m)
        aware_chain = aware_blocked.copy()
        rankings = np.argsort(-rng.random((R, n)), axis=1)
        shares_by_rank = np.full(n, 1.0 / n) if n else np.zeros(0)
        shares = backend.day_tail(
            rankings, shares_by_rank, 3.0, mode, spawn_rngs(0, R),
            aware_blocked, m,
        )
        assert shares.shape == (R, n)
        assert np.all(aware_blocked <= m)
        chained = KernelBackend.day_tail(
            backend, rankings, shares_by_rank, 3.0, mode, spawn_rngs(0, R),
            aware_chain, m,
        )
        np.testing.assert_array_equal(shares, chained)
        np.testing.assert_array_equal(aware_blocked, aware_chain)

    def test_feedback_flush_empty_touched_is_noop(self):
        backend = get_backend()
        aware = np.ones(5)
        popularity = np.zeros(5)
        quality = np.ones(5)
        dirty = np.zeros(5, dtype=bool)
        backend.feedback_flush(
            aware, popularity, quality, dirty,
            np.zeros(0, dtype=np.int64), np.zeros(0), 10,
        )
        assert not dirty.any()
        np.testing.assert_array_equal(aware, np.ones(5))

    def test_lane_repair_empty_lane_list(self):
        assert get_backend().lane_repair([], [], []) == []


# ------------------------------------------------- exact tie-run repair


class _ChosenTieKeys:
    """Generator stand-in whose ``random`` returns chosen tie keys."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None, out=None):
        if out is None:
            return self.values.copy()
        out[...] = self.values
        return out


def _tie_row(case, rng):
    """``(scores, tie_keys, keyed)`` of one row; ``keyed`` = no fallback."""
    n = 64
    if case in ("many_runs", "max_runs"):
        runs = 1024 if case == "many_runs" else 1023
        scores = np.repeat(np.arange(runs, dtype=float), 2)
        return scores, rng.random(scores.size), case == "max_runs"
    scores = np.floor(rng.random(n) * 4)
    ties = rng.random(n)
    if case == "equal_keys":
        ties[np.flatnonzero(scores == scores[0])[:3]] = 0.5
    elif case == "truncated_equal":
        # Distinct keys below 2**-53 both truncate to 0: lexsort still
        # tells them apart, so the row must fall back to exact floats.
        run = np.flatnonzero(scores == scores[0])
        ties[run[:2]] = [2.0**-60, 2.0**-61]
    elif case == "key_is_one":
        ties[3] = 1.0
    elif case == "negative_key":
        ties[5] = -0.25
    elif case == "nan_key":
        ties[7] = np.nan
    return scores, ties, case == "keyed"


class TestTieRunRepair:
    """The one-sort-per-row ``random`` repair and its three fallbacks."""

    @staticmethod
    def _rank(scores, ties, monkeypatch):
        """Numpy ``rank_day`` plus the rows the integer-key repair declined."""
        declined = []
        original = type(NUMPY_BACKEND)._repair_random_rows

        def spy(self, perm, equal_next, tie_keys, rows):
            out = original(self, perm, equal_next, tie_keys, rows)
            declined.extend(out.tolist())
            return out

        monkeypatch.setattr(type(NUMPY_BACKEND), "_repair_random_rows", spy)
        rngs = [_ChosenTieKeys(row) for row in ties]
        return NUMPY_BACKEND.rank_day(scores, None, "random", rngs), declined

    @pytest.mark.parametrize(
        "case",
        [
            "keyed",
            "equal_keys",
            "truncated_equal",
            "key_is_one",
            "negative_key",
            "nan_key",
            "many_runs",
            "max_runs",
        ],
    )
    def test_row_matches_lexsort(self, case, monkeypatch):
        scores, ties, keyed = _tie_row(case, np.random.default_rng(3))
        perm, declined = self._rank(scores[None, :], ties[None, :], monkeypatch)
        np.testing.assert_array_equal(perm[0], np.lexsort((ties, -scores)))
        assert declined == ([] if keyed else [0])

    def test_mixed_batch_matches_lexsort(self, monkeypatch):
        """Keyed and fallback rows in one call; untied rows are skipped."""
        rng = np.random.default_rng(11)
        cases = ["keyed", "equal_keys", "keyed", "key_is_one", "truncated_equal"]
        rows = [_tie_row(case, rng) for case in cases]
        untied = rng.permutation(64).astype(float)
        rows.append((untied, rng.random(64), True))
        scores = np.stack([row[0] for row in rows])
        ties = np.stack([row[1] for row in rows])
        perm, declined = self._rank(scores, ties, monkeypatch)
        for row in range(len(rows)):
            np.testing.assert_array_equal(
                perm[row], np.lexsort((ties[row], -scores[row]))
            )
        assert declined == [1, 3, 4]

    @given(
        seed=st.integers(0, 2**31 - 1),
        R=st.integers(1, 4),
        n=st.integers(1, 80),
        levels=st.floats(0.0, 1.0),
        tie_breaker=st.sampled_from(["random", "age", "index"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_rank_day_matches_deterministic_order(
        self, seed, R, n, levels, tie_breaker
    ):
        """Scores on q levels, q = 1 (one tied run) up to q = n (no ties)."""
        from repro.core.rankers import _deterministic_order

        q = 1 + round(levels * (n - 1))
        rng = np.random.default_rng(seed)
        scores = np.stack([rng.permutation(n) % q for _ in range(R)]) / q
        ages = np.floor(rng.random((R, n)) * 3) if tie_breaker == "age" else None
        perm = NUMPY_BACKEND.rank_day(
            scores, ages, tie_breaker, spawn_rngs(seed, R)
        )
        rngs = spawn_rngs(seed, R)
        for row in range(R):
            expected = _deterministic_order(
                scores[row],
                None if ages is None else ages[row],
                tie_breaker,
                rngs[row],
            )
            np.testing.assert_array_equal(perm[row], expected)


@pytest.mark.skipif(
    HAVE_NUMBA, reason="real numba installed; the JIT parity suite covers this"
)
def test_numba_kernels_match_numpy_with_stubbed_njit(monkeypatch):
    """Every numba kernel's algorithm, checked bit for bit without numba.

    On hosts without numba the JIT backend cannot import, so its kernels
    would only ever run on the numba CI leg.  Stubbing ``numba`` with an
    identity ``njit`` (and ``prange = range``) runs the same kernel bodies
    as plain Python against the numpy reference: ``rank_day`` under all
    three tie rules, ``promotion_merge``, the fluid ``day_tail`` below and
    above the numpy backend's row-block height, ``lane_repair``,
    ``feedback_flush`` and ``warmup``.
    """
    import importlib
    import sys
    import types

    from repro.core.kernels.numpy_backend import DAY_TAIL_BLOCK_ROWS

    stub = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda fn: fn

    stub.njit = njit
    stub.prange = range
    monkeypatch.setitem(sys.modules, "numba", stub)
    sys.modules.pop("repro.core.kernels.numba_backend", None)
    try:
        module = importlib.import_module("repro.core.kernels.numba_backend")
        backend = module.NumbaKernelBackend()
        backend.warmup()
        rng = np.random.default_rng(0)
        R, n, m = 3, 40, 9

        # Scores on ten levels: every row carries long tie runs.
        scores = np.round(rng.random((R, n)), 1)
        ages = np.floor(rng.random((R, n)) * 5)
        for tie_breaker in ("random", "age", "index"):
            np.testing.assert_array_equal(
                backend.rank_day(scores, ages, tie_breaker, spawn_rngs(1, R)),
                NUMPY_BACKEND.rank_day(
                    scores, ages, tie_breaker, spawn_rngs(1, R)
                ),
            )

        perms = NUMPY_BACKEND.rank_day(scores, None, "index", spawn_rngs(2, R))
        mask = rng.random((R, n)) < 0.3
        np.testing.assert_array_equal(
            backend.promotion_merge(perms, mask, 2, 0.4, spawn_rngs(3, R)),
            NUMPY_BACKEND.promotion_merge(perms, mask, 2, 0.4, spawn_rngs(3, R)),
        )

        shares_by_rank = PowerLawAttention().visit_shares(n)
        for rows in (DAY_TAIL_BLOCK_ROWS - 1, DAY_TAIL_BLOCK_ROWS + 3):
            rankings = np.argsort(-rng.random((rows, n)), axis=1)
            aware = np.floor(rng.random((rows, n)) * m)
            surf = rng.random((rows, n))
            for fraction in (0.0, 0.2):
                ours, theirs = aware.copy(), aware.copy()
                shares = [
                    kernel.day_tail(
                        rankings, shares_by_rank, 2.5, "fluid",
                        spawn_rngs(4, rows), state, m,
                        surfing_fraction=fraction, surf_shares=surf,
                    )
                    for kernel, state in ((backend, ours), (NUMPY_BACKEND, theirs))
                ]
                np.testing.assert_array_equal(*shares)
                np.testing.assert_array_equal(ours, theirs)

        pop = np.round(rng.random((2, n)), 1)
        orders = [np.lexsort((rng.random(n), -pop[i])) for i in range(2)]
        dirty = [np.sort(rng.choice(n, size=5, replace=False)) for _ in range(2)]
        for i, d in enumerate(dirty):
            pop[i, d] = np.round(rng.random(5), 1)
        repaired = backend.lane_repair(orders, list(pop), dirty)
        reference = NUMPY_BACKEND.lane_repair(orders, list(pop), dirty)
        for ours, theirs in zip(repaired, reference, strict=True):
            np.testing.assert_array_equal(ours, theirs)

        quality = rng.random(n)
        touched = np.unique(rng.integers(0, n, size=10))
        summed = rng.random(touched.size) * 4
        aware = np.floor(rng.random(n) * m)
        flat = [(aware.copy(), np.zeros(n), np.zeros(n, dtype=bool)) for _ in range(2)]
        for kernel, (state_aware, state_pop, state_dirty) in zip(
            (backend, NUMPY_BACKEND), flat, strict=True
        ):
            kernel.feedback_flush(
                state_aware, state_pop, quality, state_dirty, touched, summed, m
            )
        for ours, theirs in zip(*flat, strict=True):
            np.testing.assert_array_equal(ours, theirs)
    finally:
        # Never leave a stub-built backend module importable: a later
        # get_backend("numba") must re-attempt the real import.
        sys.modules.pop("repro.core.kernels.numba_backend", None)


# ------------------------------------------------ numba cross-backend parity


@needs_numba
class TestNumbaBitParity:
    @given(
        seed=st.integers(0, 2**31 - 1),
        mode=st.sampled_from(["fluid", "stochastic"]),
        replicates=st.integers(1, 4),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_day_steps_bit_identical(self, seed, mode, replicates):
        """(R, n) day steps agree bit for bit between numpy and numba."""
        kernel_community = _kernel_community()
        policy = RankPromotionPolicy("selective", 1, 0.2)
        config = SimulationConfig(
            warmup_days=2, measure_days=4, mode=mode, seed=seed
        )
        results = {}
        for name in ("numpy", "numba"):
            with use_backend(name):
                simulator = BatchSimulator(
                    kernel_community,
                    policy.build_ranker(),
                    config,
                    replicates=replicates,
                )
                shares = [simulator.step() for _ in range(4)]
                results[name] = (
                    np.asarray(shares),
                    simulator.pool.aware_count.copy(),
                    simulator.pool.page_ids.copy(),
                )
        for ours, theirs in zip(results["numpy"], results["numba"], strict=True):
            np.testing.assert_array_equal(ours, theirs)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=5, deadline=None)
    def test_run_batch_results_bit_identical(self, seed):
        kernel_community = _kernel_community()
        config = SimulationConfig(warmup_days=2, measure_days=3, seed=seed)
        ranker = RankPromotionPolicy("selective", 1, 0.2).build_ranker()
        qpc = {}
        for name in ("numpy", "numba"):
            with use_backend(name):
                results = run_batch(
                    kernel_community, ranker, config, replicates=3, n_workers=1
                )
                qpc[name] = [r.qpc_absolute for r in results]
        assert qpc["numpy"] == qpc["numba"]

    @given(
        seed=st.integers(0, 2**31 - 1),
        mode=st.sampled_from(["fluid", "stochastic"]),
    )
    @settings(max_examples=5, deadline=None)
    def test_sweep_rows_bit_identical(self, seed, mode):
        """Sweep rows agree bit for bit between backends at equal seeds."""
        kernel_community = _kernel_community()
        from test_sweep import make_trace

        variants = [
            SweepVariant(k=8, r=0.1, cache_capacity=16, staleness_budget=1,
                         mode=mode),
            SweepVariant(k=6, r=0.0, cache_capacity=8, staleness_budget=0,
                         n_shards=2, mode=mode),
            SweepVariant(k=8, r=0.2, cache_capacity=16, staleness_budget=2,
                         mode=mode),
        ]
        trace = make_trace(n_queries=120, flush_every=8, day_every=40)
        rows = {}
        for name in ("numpy", "numba"):
            with use_backend(name):
                sweep = ServingSweep(kernel_community, variants, seed=seed % 97)
                rows[name] = sweep.run(trace)
        for ours, theirs in zip(rows["numpy"], rows["numba"], strict=True):
            assert ours.matches(theirs)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_kernel_level_equality(self, seed):
        """rank_day / promotion_merge / lane_repair / feedback_flush agree."""
        rng = np.random.default_rng(seed)
        R, n = 3, 40
        numba_backend = get_backend("numba")
        scores = np.round(rng.random((R, n)), 1)
        ages = np.floor(rng.random((R, n)) * 5)
        for tie_breaker in ("random", "age", "index"):
            a = NUMPY_BACKEND.rank_day(
                scores, ages, tie_breaker, spawn_rngs(seed, R)
            )
            b = numba_backend.rank_day(
                scores, ages, tie_breaker, spawn_rngs(seed, R)
            )
            np.testing.assert_array_equal(a, b)

        perms = NUMPY_BACKEND.rank_day(scores, None, "index", spawn_rngs(seed, R))
        mask = rng.random((R, n)) < 0.3
        a = NUMPY_BACKEND.promotion_merge(perms, mask, 2, 0.4, spawn_rngs(seed, R))
        b = numba_backend.promotion_merge(perms, mask, 2, 0.4, spawn_rngs(seed, R))
        np.testing.assert_array_equal(a, b)

        pop = np.round(rng.random((2, n)), 1)
        orders = [np.lexsort((rng.random(n), -pop[i])) for i in range(2)]
        dirty = [np.sort(rng.choice(n, size=5, replace=False)) for _ in range(2)]
        for i, d in enumerate(dirty):
            pop[i, d] = np.round(rng.random(5), 1)
        a = NUMPY_BACKEND.lane_repair(orders, list(pop), dirty)
        b = numba_backend.lane_repair(orders, list(pop), dirty)
        for ours, theirs in zip(a, b, strict=True):
            np.testing.assert_array_equal(ours, theirs)

        aware_a = np.floor(rng.random(n) * 9)
        aware_b = aware_a.copy()
        state = {
            "pop": np.zeros(n), "quality": rng.random(n),
            "dirty": np.zeros(n, dtype=bool),
        }
        touched = np.unique(rng.integers(0, n, size=10))
        summed = rng.random(touched.size) * 4
        pop_a, dirty_a = state["pop"].copy(), state["dirty"].copy()
        pop_b, dirty_b = state["pop"].copy(), state["dirty"].copy()
        NUMPY_BACKEND.feedback_flush(
            aware_a, pop_a, state["quality"], dirty_a, touched, summed, 9
        )
        numba_backend.feedback_flush(
            aware_b, pop_b, state["quality"], dirty_b, touched, summed, 9
        )
        np.testing.assert_array_equal(aware_a, aware_b)
        np.testing.assert_array_equal(pop_a, pop_b)
        np.testing.assert_array_equal(dirty_a, dirty_b)
