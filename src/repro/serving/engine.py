"""The online serving engine: lazy top-k ranking over incremental state.

The offline :class:`~repro.simulation.engine.Simulator` produces one full
ranking per simulated day — O(n log n) work per step over the whole
community.  The :class:`ServingEngine` answers individual ``top_k`` queries
instead:

* the deterministic popularity order is *maintained*, not recomputed, and
  repaired *lazily*: the engine keeps the order of its last full sort or
  compaction (the *base*) plus a *side list* of the pages dirtied since.
  A feedback batch that touches ``d`` pages costs O(S + d) for a side list
  of ``S`` pages, and a query reads the first ``k`` pages of a two-way
  merge of the base walk and the sorted side list.  One O(n) merge repair
  folds the side list into the base once it passes ``n // 64`` pages, and
  a full re-sort still takes over when half the community moved;
* randomized rank promotion is applied only to the *served prefix*: the
  merge coin of :func:`~repro.core.merge.merge_positions` is flipped for the
  ``k`` visible slots alone, and the promoted entries are drawn directly
  from the promotion pool — equivalent in distribution to shuffling the
  whole pool and merging all ``n`` positions, but O(k + s) instead of O(n).

A query therefore costs O(k + S + promoted) plus the amortized compaction,
which is what lets one engine serve a heavy query stream over a 200k-page
community.  The exact full-ranking path of the simulator remains available
as :meth:`rank_all` and is what the parity replay adapter uses.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.community.config import CommunityConfig
from repro.community.lifecycle import Lifecycle, PoissonLifecycle
from repro.core.batch_rank import batched_deterministic_order
from repro.core.kernels import merge_repair
from repro.core.policy import RECOMMENDED_POLICY, RankPromotionPolicy
from repro.core.rankers import RandomizedPromotionRanker
from repro.core.rankers_context import RankingContext
from repro.robustness.faults import NULL_INJECTOR
from repro.serving.cache import ResultPageCache, page_key
from repro.serving.state import PopularityState
from repro.telemetry.recorder import NULL_RECORDER
from repro.utils.rng import RandomSource, as_rng
from repro.visits.attention import AttentionModel, PowerLawAttention
from repro.visits.surfing import MixedSurfingModel

#: The side list is compacted into the base order once it holds more than
#: ``n // SIDE_LIST_DIVISOR`` pages.
SIDE_LIST_DIVISOR = 64

#: An engine's memo of cache keys by ``k`` is cleared once it holds this
#: many keys.
PAGE_KEY_MEMO_LIMIT = 1 << 10

_NO_PAGES = np.zeros(0, dtype=np.int64)


class ServingEngine:
    """Serves top-k result pages for one community from incremental state.

    Mirrors the :class:`~repro.simulation.engine.Simulator` constructor
    conventions (same defaults, same seed handling, same pool construction
    order) so that an engine and a simulator built from equal seeds start
    from identical state — the basis of the serving/offline parity tests.
    """

    def __init__(
        self,
        community: CommunityConfig,
        policy: RankPromotionPolicy = RECOMMENDED_POLICY,
        *,
        mode: str = "fluid",
        attention: Optional[AttentionModel] = None,
        surfing: Optional[MixedSurfingModel] = None,
        lifecycle: Optional[Lifecycle] = None,
        cache: Optional[ResultPageCache] = None,
        state: Optional[PopularityState] = None,
        name: str = "community",
        seed: RandomSource = None,
    ) -> None:
        self.community = community
        self.policy = policy
        self.ranker = policy.build_ranker()
        self.attention = attention or PowerLawAttention()
        self.surfing = surfing or MixedSurfingModel(surfing_fraction=0.0)
        self.lifecycle = lifecycle or PoissonLifecycle.from_lifetime(
            community.expected_lifetime_days
        )
        self.cache = cache
        self.name = name
        self.rng = as_rng(seed)
        if state is not None and state.n != community.n_pages:
            raise ValueError(
                "state has %d pages but the community expects %d"
                % (state.n, community.n_pages)
            )
        self.state = (
            state
            if state is not None
            else PopularityState.from_config(community, self.rng, mode=mode)
        )
        self.day = 0
        self.full_sorts = 0
        self.repairs = 0
        self.telemetry = NULL_RECORDER
        self.faults = NULL_INJECTOR
        self._policy_tag = policy.describe()
        # Cache key per int(k): name, policy and page count never change.
        self._page_keys: dict = {}
        # Maintained descending-popularity order.  Ties are broken by
        # random per-page keys drawn at each full sort: a fixed index order
        # would pin the huge zero-popularity tie group and starve most cold
        # pages of traffic forever, while per-call re-randomization (what
        # the exact ranker does) cannot be maintained incrementally.  Pages
        # moved by a repair re-enter at the back of their new tie group.
        #
        # ``_order`` is the base: the order of the last full sort or
        # compaction.  ``_side`` lists the pages dirtied since, in (repair
        # epoch, page index) order — each repair drops the entries it dirties
        # again and appends its own pages ascending, so an entry's position
        # carries the epoch that last dirtied it.  ``_in_side`` marks them
        # (and is compaction's all-False scratch once they are folded in).
        self._order: Optional[np.ndarray] = None
        self._order_version = -1
        self._side = _NO_PAGES
        self._in_side: Optional[np.ndarray] = None
        # The selective rule's pool (zero-awareness pages) is maintained
        # incrementally; other rules compute their pool per query.
        self._selective = policy.rule == "selective" and not policy.is_deterministic
        self._promoted_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ API

    def serve(self, k: int, rng: RandomSource = None) -> np.ndarray:
        """Answer one query: the top-``k`` result page, through the cache.

        With a cache attached the page is validated against the current
        state version (OCC read pattern); without one this is ``top_k``.
        Cached pages repeat the same randomized promotions until they go
        stale — bounded-staleness exploration is the price of the hit rate.
        The cache key is memoized per ``int(k)``, so ``20``, ``20.0`` and
        ``np.int64(20)`` share one entry.
        """
        if k < 1:
            # Same validation as top_k, applied before the cache key is
            # built: a bad k must never produce a lookup/miss accounting
            # entry for a page that can never be stored.
            raise ValueError("k must be >= 1, got %d" % k)
        if self.faults.enabled:
            self.faults.before_engine_serve(self)
        if self.cache is None:
            return self.top_k(k, rng)
        keys = self._page_keys
        key = keys.get(int(k))
        if key is None:
            if len(keys) >= PAGE_KEY_MEMO_LIMIT:
                keys.clear()
            key = keys[int(k)] = page_key(
                self.name, min(int(k), self.state.n), self._policy_tag
            )
        page = self.cache.lookup(key, self.state.version)
        if page is not None:
            return page
        page = self.top_k(k, rng)
        self.cache.store(key, page, self._order_version)
        return page

    def top_k(self, k: int, rng: RandomSource = None) -> np.ndarray:
        """Compute a fresh top-``k`` result page (no cache involved)."""
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        n = self.state.n
        k = min(int(k), n)
        generator = as_rng(rng) if rng is not None else self.rng
        self._refresh_order()
        if self.policy.is_deterministic:
            return self._unpromoted_prefix(k)
        mask = self._promotion_pool_mask(generator)
        pool_count = np.count_nonzero(mask)
        return self._merge_prefix(k, mask, pool_count, generator)

    def apply_feedback(
        self,
        indices: np.ndarray,
        visits: Optional[np.ndarray] = None,
        rng: RandomSource = None,
    ) -> None:
        """Stream a batch of monitored visit feedback into the state."""
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        if visits is None:
            visits = np.ones(indices.size)
        self.state.apply_visits_at(
            indices, visits, rng=rng if rng is not None else self.rng
        )

    def advance_day(self) -> np.ndarray:
        """Run one lifecycle step (page retirement/replacement); returns slots."""
        replaced = self.lifecycle.step(
            self.state.pool, now=float(self.day), rng=self.rng
        )
        self.state.note_replaced(replaced)
        self.day += 1
        return replaced

    def rank_all(self, rng: RandomSource = None) -> np.ndarray:
        """Full ranking through the exact simulator ranker (parity path)."""
        context = RankingContext.from_pool(self.state.pool, now=float(self.day))
        return self.ranker.rank(context, rng if rng is not None else self.rng)

    def drop_order(self) -> None:
        """Forget the maintained order; the next query sorts from scratch.

        For a shard that lost or replaced its state (crash recovery): the
        base, the side list and the selective pool go with it.
        """
        self._order = None
        self._order_version = -1
        self._side = _NO_PAGES
        self._in_side = None
        self._promoted_mask = None

    # --------------------------------------------------- order maintenance

    def _refresh_order(self) -> None:
        state = self.state
        if self._order is None:
            self._sort_order()
            if self._selective:
                self._promoted_mask = state.pool.aware_count < 1.0 - 1e-9
            state.consume_dirty()
            self._order_version = state.version
            return
        if self._order_version == state.version:
            return
        if self._absorb(state.consume_dirty()):
            self._sort_order()
        self._order_version = state.version

    def _sort_order(self) -> None:
        """Fully re-sort the maintained order through the ``rank_day`` kernel.

        One ``random(n)`` tie-key draw from the engine's generator, as the
        exact ranker draws.  The sort becomes the base and empties the side
        list.
        """
        self._order = batched_deterministic_order(
            self.state.popularity[None, :], None, "random", [self.rng]
        )[0]
        if self._in_side is None:
            self._in_side = np.zeros(self._order.size, dtype=bool)
        elif self._side.size:
            self._in_side[self._side] = False
            self._side = _NO_PAGES
        self.full_sorts += 1
        if self.telemetry.enabled:
            self.telemetry.record_full_sort()

    def _absorb(self, dirty: np.ndarray) -> bool:
        """Take one refresh's dirty pages; True when they need a full re-sort.

        ``dirty`` holds distinct ascending page indices, as
        ``consume_dirty`` returns them.  Refreshes the selective pool for
        ``dirty``.  Half the community or more calls for a full re-sort,
        which :meth:`_refresh_order` runs.  Fewer pages are repaired lazily
        in O(S + d): they join the side list as the newest epoch, and no
        O(n) pass runs until the list passes ``n // SIDE_LIST_DIVISOR``
        pages and is compacted.
        """
        state = self.state
        if dirty.size == 0:
            return False
        if self._selective:
            self._promoted_mask[dirty] = (
                state.pool.aware_count[dirty] < 1.0 - 1e-9
            )
        n = state.n
        if dirty.size >= n // 2:
            return True
        in_side = self._in_side
        side = self._side
        if side.size:
            in_side[dirty] = False
            side = side[in_side[side]]  # drop the entries dirtied again
        in_side[dirty] = True
        self._side = np.concatenate((side, dirty))
        if self._side.size > n // SIDE_LIST_DIVISOR:
            self._compact()
        self.repairs += 1
        if self.telemetry.enabled:
            self.telemetry.record_repair()
        return False

    def _compact(self) -> None:
        """Fold the side list into the base with one ``merge_repair``.

        ``merge_repair`` sorts the moved pages stably over the order it is
        given, and the side list is in (epoch, index) order, so the new base
        is exactly the order successive eager repairs would have built.  The
        membership mask serves as its scratch and comes back all False.
        """
        if not self._side.size:
            return
        self._order, self._in_side = merge_repair(
            self._order, self.state.popularity, self._side, self._in_side
        )
        self._side = _NO_PAGES

    # ------------------------------------------------------ prefix serving

    def _promotion_pool_mask(self, generator: np.random.Generator) -> np.ndarray:
        if self._selective:
            return self._promoted_mask
        state = self.state
        rule = self.ranker.promotion_rule
        context = RankingContext(
            popularity=state.popularity,
            awareness=state.pool.awareness,
            quality=state.pool.quality,
            ages=state.pool.ages(float(self.day)),
            monitored_population=state.pool.monitored_population,
        )
        return np.asarray(rule.select(context, generator), dtype=bool)

    def _merge_prefix(
        self,
        k: int,
        mask: np.ndarray,
        pool_count: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """First ``k`` slots of the randomized merge, without building it all.

        Coin flips are drawn for the unprotected visible slots only, and the
        promoted entries are a uniform random ordered sample of the pool —
        the marginal distribution of the first slots of the full shuffle-
        and-merge.  Drain semantics match the full merge: whichever list
        runs out first cedes its remaining slots to the other.
        """
        n = self.state.n
        protected = min(self.policy.k - 1, k)
        open_slots = k - protected
        flips = (
            generator.random(open_slots) < self.policy.r
            if open_slots > 0
            else np.zeros(0, dtype=bool)
        )
        s = min(np.count_nonzero(flips), pool_count)
        n_unpromoted = n - pool_count
        if k - s > n_unpromoted:
            # Deterministic list drains within the page; tail comes from the pool.
            s = min(k - n_unpromoted, pool_count)

        slots = np.zeros(k, dtype=bool)
        flip_true = flips.nonzero()[0] + protected
        if s < flip_true.size:
            flip_true = flip_true[:s]  # promotion pool drained
        slots[flip_true] = True
        short = s - flip_true.size
        if short > 0:  # deterministic list drained: fill trailing slots
            tail_false = np.flatnonzero(~slots)[-short:]
            slots[tail_false] = True

        deterministic = self._unpromoted_prefix(k - s, mask)
        promoted = self._sample_pool(generator, mask, pool_count, s)
        page = np.empty(k, dtype=int)
        page[slots] = promoted
        page[~slots] = deterministic
        return page

    def _unpromoted_prefix(
        self, need: int, mask: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """First ``need`` pages of the maintained order not in the pool.

        ``mask`` marks the promotion pool (``None``: no pool).  The base
        walk and the side list are concatenated in that order and sorted
        stably by descending popularity: among equal popularity, base pages
        come first in base order, then side pages in (epoch, index) order.
        That is the order successive ``merge_repair`` calls would have
        built, read without building it.
        """
        if need <= 0:
            return _NO_PAGES
        side = self._side
        if mask is not None and side.size:
            side = side[~mask[side]]
        base = self._base_prefix(need, mask)
        if not side.size:
            return base
        candidates = np.concatenate((base, side))
        ranked = (-self.state.popularity[candidates]).argsort(kind="stable")
        return candidates[ranked[:need]]

    def _base_prefix(self, need: int, mask: Optional[np.ndarray]) -> np.ndarray:
        """First ``need`` base pages outside the side list and the pool."""
        order = self._order
        if mask is None and not self._side.size:
            return order[:need].copy()
        n = order.size
        parts, got, start, chunk = [], 0, 0, max(4 * need, 64)
        while got < need and start < n:
            segment = order[start : start + chunk]
            skip = self._in_side[segment]
            if mask is not None:
                skip |= mask[segment]
            segment = segment[~skip]
            if not parts and segment.size >= need:
                return segment[:need]  # common case: one chunk suffices
            parts.append(segment)
            got += segment.size
            start += chunk
            chunk *= 2
        return np.concatenate(parts)[:need]

    def _sample_pool(
        self,
        generator: np.random.Generator,
        mask: np.ndarray,
        pool_count: int,
        s: int,
    ) -> np.ndarray:
        """Uniform ordered sample of ``s`` distinct pool members."""
        if s <= 0:
            return np.zeros(0, dtype=int)
        n = mask.size
        if pool_count < max(1024, 4 * s) or 4 * pool_count < n:
            members = mask.nonzero()[0]
            return members[generator.choice(members.size, size=s, replace=False)]
        # Dense pool: rejection sampling avoids materializing the member list.
        chosen: list = []
        seen = set()
        while len(chosen) < s:
            batch = generator.integers(0, n, size=max(16, 4 * (s - len(chosen))))
            for candidate in batch:
                candidate = int(candidate)
                if mask[candidate] and candidate not in seen:
                    seen.add(candidate)
                    chosen.append(candidate)
                    if len(chosen) == s:
                        break
        return np.asarray(chosen, dtype=int)


__all__ = ["ServingEngine"]
