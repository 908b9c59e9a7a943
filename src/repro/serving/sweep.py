"""Batched serving-replay sweep: R serving variants replayed in lockstep.

Choosing a serving configuration — page length ``k``, promotion ratio
``r``, cache budget, shard count — means replaying the *same* recorded
query stream under every candidate and comparing the outcomes.  Replaying
the variants one at a time costs R full Python-level query loops; this
module replays them **in lockstep** instead, and the per-variant outcome is
**bit-identical** to running each variant's
:class:`~repro.serving.router.ShardedRouter` alone at equal seeds (the
ground truth is :func:`repro.simulation.replay.replay_trace`; the parity
tests assert digest/state equality per variant).

The lockstep structure exploits one invariant of the serving stack: between
two feedback flushes (and lifecycle days) every variant's popularity state
is *frozen*, because the router buffers click feedback.  The sweep
therefore advances the stream one **window** at a time (windows end at the
trace's flush/day boundaries, :meth:`RecordedTrace.boundaries`):

* each variant's shard lane serves at most one *distinct* result page per
  window, so the R x window_length standalone ``serve`` calls collapse to
  one :meth:`ServingEngine.serve <repro.serving.engine.ServingEngine.serve>`
  call per lane (the cache's OCC validate-on-read, and on a miss the
  engine's own ``top_k`` and store) plus arithmetic hit accounting;
* served pages, click positions and feedback routing are computed for the
  whole window as array programs (one gather + one CRC per variant per
  window instead of per query);
* the fluid feedback flush of all lanes of one community size is one
  ``feedback_flush`` kernel call over their stacked ``(L, n)`` state.

Parity is structural: every lane *is* a real
:class:`~repro.serving.engine.ServingEngine` (same construction order,
same spawned generators), and every served page comes from that engine's
own ``serve``, so its generator is consumed exactly as in the standalone
replay.  The sweep only replaces the per-query outer loop.  Variants whose
configuration defeats window collapsing (no cache *and* a randomized
policy: every query legitimately re-rolls its promotions) replay query by
query through ``router.serve`` and ``router.submit_feedback``, the loop
body of :func:`~repro.simulation.replay.replay_trace`.
"""

from __future__ import annotations

import itertools
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.community.config import CommunityConfig, DEFAULT_COMMUNITY
from repro.core.kernels import get_backend
from repro.core.policy import VALID_RULES, RankPromotionPolicy
from repro.serving.config import ServingConfig, build_router
from repro.serving.engine import ServingEngine
from repro.serving.router import ShardedRouter, stable_shard_hash
from repro.serving.state import sum_by_page
from repro.serving.workload import RecordedTrace, StreamingWorkload, WorkloadConfig, record_trace
from repro.utils.parallel import default_workers
from repro.utils.rng import derive_seed
from repro.visits.attention import AttentionModel, PowerLawAttention

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

#: Shared scratch for single-shard routing: every query lands on lane 0, so
#: all single-shard variants can view one constant zero vector per window
#: instead of allocating their own.
_ZERO_SHARDS = np.zeros(4096, dtype=np.int64)
_ZERO_SHARDS.setflags(write=False)
_SINGLE_LANE = np.zeros(1, dtype=np.int64)
_SINGLE_LANE.setflags(write=False)


@dataclass(frozen=True)
class SweepVariant:
    """One serving configuration in a sweep grid.

    Attributes:
        k: result-page length served per query.
        r: degree of randomization of the promotion merge.
        rule: promotion rule kind (``none``/``uniform``/``selective``).
        promote_k: protected prefix — ranks better than this never move.
        cache_capacity: result pages cached per shard; ``None`` or ``0``
            disables caching.
        staleness_budget: state versions a cached page may lag before the
            validate-on-read check discards it.
        n_shards: community shards behind the variant's router.
        mode: popularity update mode (``fluid`` or ``stochastic``).
    """

    k: int = 10
    r: float = 0.1
    rule: str = "selective"
    promote_k: int = 1
    cache_capacity: Optional[int] = 64
    staleness_budget: int = 0
    n_shards: int = 1
    mode: str = "fluid"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1, got %d" % self.k)
        # Promotion parameters are validated by the policy construction.
        self.policy()

    def policy(self) -> RankPromotionPolicy:
        """The rank promotion policy this variant serves under."""
        return RankPromotionPolicy(self.rule, self.promote_k, self.r)

    @property
    def effective_cache_capacity(self) -> Optional[int]:
        """Cache capacity with ``0`` normalized to "no cache"."""
        if not self.cache_capacity:
            return None
        return self.cache_capacity

    def label(self) -> str:
        """Short row label used in sweep tables."""
        cache = (
            "off"
            if self.effective_cache_capacity is None
            else "%d/lag%d" % (self.effective_cache_capacity, self.staleness_budget)
        )
        return "k=%d r=%.2f %s cache=%s shards=%d" % (
            self.k, self.r, self.rule, cache, self.n_shards,
        )


def variant_grid(
    ks: Sequence[int] = (10, 20),
    rs: Sequence[float] = (0.0, 0.1, 0.2, 0.3),
    staleness_budgets: Sequence[int] = (0, 4),
    shard_counts: Sequence[int] = (1, 2),
    cache_capacity: Optional[int] = 64,
    rule: str = "selective",
    promote_k: int = 1,
    mode: str = "fluid",
) -> List[SweepVariant]:
    """Cartesian grid of sweep variants over the paper's serving knobs.

    The four grid axes are page length ``k``, randomization degree ``r``,
    the cache's bounded-staleness budget (the OCC validate-on-read knob),
    and the shard count.  The grid order is deterministic (``ks``
    outermost, ``shard_counts`` innermost), so variant ``i`` maps to the
    same configuration on every run — which is what keeps per-variant
    seeds stable across the sweep and the standalone baseline.
    """
    if rule not in VALID_RULES:
        raise ValueError("rule must be one of %s, got %r" % (VALID_RULES, rule))
    return [
        SweepVariant(
            k=int(k),
            r=float(r),
            rule=rule,
            promote_k=promote_k,
            cache_capacity=cache_capacity,
            staleness_budget=int(budget),
            n_shards=int(shards),
            mode=mode,
        )
        for k, r, budget, shards in itertools.product(
            ks, rs, staleness_budgets, shard_counts
        )
    ]


def parse_grid_values(
    spec: str,
    kind: type = int,
    name: str = "grid",
    minimum=None,
    maximum=None,
) -> List:
    """Parse a comma-separated CLI grid spec (``"10,20"``) into values.

    ``minimum``/``maximum`` bound every parsed value with a clear error —
    the same early validation the kernel layer applies to ``k`` and ``r``,
    so an out-of-range grid axis fails at parse time instead of deep inside
    a sweep worker.
    """
    values = [kind(part.strip()) for part in str(spec).split(",") if part.strip()]
    if not values:
        raise ValueError("empty grid spec %r" % spec)
    for value in values:
        if minimum is not None and value < minimum:
            raise ValueError(
                "%s values must be >= %s, got %r in %r" % (name, minimum, value, spec)
            )
        if maximum is not None and value > maximum:
            raise ValueError(
                "%s values must be <= %s, got %r in %r" % (name, maximum, value, spec)
            )
    return values


def variant_seed(seed: Optional[int], index: int):
    """Deterministic per-variant seed, stable across sweep and baseline.

    A fresh :class:`numpy.random.SeedSequence` is built from
    ``(seed, index)`` entropy on every call — unlike
    ``SeedSequence.spawn``, repeated calls hand out the *same* child, so
    the lockstep sweep and the standalone single-variant replay construct
    identical routers.  Derived uses append a stream tag to this entropy
    (:func:`build_variant_router` appends ``1`` for the warm-awareness
    profile), keeping them independent of the construction stream without
    a second seeding convention.
    """
    root = 0 if seed is None else int(seed) & _SEED_MASK
    return np.random.SeedSequence(entropy=(root, int(index)))


def build_variant_router(
    community: CommunityConfig,
    variant: SweepVariant,
    seed,
    warm_awareness: bool = False,
) -> ShardedRouter:
    """Build the router for one variant (shared by sweep and baseline).

    Both replay paths must call this one constructor so shard partitioning,
    engine seeds and the optional warm steady-state awareness profile are
    identical — the precondition for bit-identical replays.
    """
    router = build_router(
        ServingConfig(
            n_pages=community.n_pages,
            n_shards=variant.n_shards,
            mode=variant.mode,
            cache_capacity=variant.effective_cache_capacity,
            staleness_budget=variant.staleness_budget,
        ),
        community=community,
        seed=seed,
        policy=variant.policy(),
    )
    if warm_awareness:
        from repro.serving.bench import seed_steady_state_awareness

        if not isinstance(seed, np.random.SeedSequence):
            raise ValueError(
                "warm_awareness requires a per-variant SeedSequence from "
                "variant_seed(), so the warm profile is reproducible"
            )
        entropy = seed.entropy
        if not isinstance(entropy, (tuple, list)):
            entropy = (int(entropy),)
        warm = np.random.SeedSequence(entropy=tuple(entropy) + (1,))
        seed_steady_state_awareness(router, rng=np.random.default_rng(warm))
    return router


class _LaneGroup:
    """Equal-size lanes whose per-page state shares (L, n) matrices.

    A lane is one shard engine of one variant.  Stacking copies each lane's
    current arrays into matrix rows and then re-binds the lane's
    ``PagePool``/``PopularityState`` attributes to the row views, so all
    later in-place mutations (feedback, lifecycle, awareness seeding) land
    in the matrices.  ``version`` counters and the page-id/creation arrays
    stay per-lane — only the arrays the batched kernels address are stacked.
    """

    __slots__ = ("n", "m", "aware", "popularity", "dirty", "quality")

    def __init__(self, engines: List[ServingEngine], n: int) -> None:
        self.n = n
        self.m = engines[0].state.pool.monitored_population
        self.aware = np.stack([engine.state.pool.aware_count for engine in engines])
        self.popularity = np.stack([engine.state.popularity for engine in engines])
        self.dirty = np.stack([engine.state._dirty_mask for engine in engines])
        self.quality = np.stack([engine.state.pool.quality for engine in engines])
        for row, engine in enumerate(engines):
            state = engine.state
            state.pool.aware_count = self.aware[row]
            state.pool.quality = self.quality[row]
            state._popularity = self.popularity[row]
            state._dirty_mask = self.dirty[row]


class _VariantReplay:
    """Mutable lockstep-replay context of one variant."""

    def __init__(
        self,
        variant: SweepVariant,
        router: ShardedRouter,
        attention: AttentionModel,
    ) -> None:
        self.variant = variant
        self.router = router
        self.per_query = (
            variant.effective_cache_capacity is None
            and not variant.policy().is_deterministic
        )
        self.click_cdf = np.cumsum(attention.visit_shares(max(variant.k, 1)))
        self.shard_table: Optional[np.ndarray] = None  # set by the sweep
        self.pages_crc = 0
        self.clicked_crc = 0
        self.feedback_events = 0
        self.clicked_quality_sum = 0.0
        # Window scratch, set by route()/finish().
        self._w_shards: Optional[np.ndarray] = None
        self._w_lanes: Optional[np.ndarray] = None
        self._w_counts: List[int] = []
        self._w_pages: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------- windowing

    def route(self, inverse_w: np.ndarray) -> None:
        """Route a window's queries to lanes and serve each lane once.

        Serving a lane more than once inside a window repeats the first
        answer: the state version cannot move until the boundary flush, so
        after the first ``serve`` (a validate-on-read hit, or a miss that
        computes and stores the page) every further lookup is a guaranteed
        cache hit.  Only the first serve per lane is therefore performed for
        real; the rest become hit-counter arithmetic in :meth:`finish`.
        Without a cache, a deterministic page is a pure function of the
        frozen state: one ``serve`` gives the bits the standalone path
        recomputes for every query.
        """
        if self.per_query:
            return  # served query by query in finish()
        if self.shard_table is None:
            shards = _ZERO_SHARDS[: inverse_w.size]
            if shards.size < inverse_w.size:
                shards = np.zeros(inverse_w.size, dtype=np.int64)
            lanes = _SINGLE_LANE
            counts = [inverse_w.size]
        else:
            shards = self.shard_table[inverse_w]
            tally = np.bincount(shards, minlength=self.router.n_shards)
            # ``nonzero`` skips ``flatnonzero``'s Python-level wrappers;
            # this runs per variant and window.
            lanes = tally.nonzero()[0]
            counts = tally[lanes].tolist()
        self._w_shards, self._w_lanes, self._w_counts = shards, lanes, counts
        pages = self._w_pages
        pages.clear()
        engines = self.router.engines
        k = self.variant.k
        for lane_index in lanes.tolist():
            pages[lane_index] = engines[lane_index].serve(k)

    def finish(
        self,
        trace: RecordedTrace,
        start: int,
        end: int,
        clicks: np.ndarray,
        positions_by_k: Dict[int, np.ndarray],
    ) -> None:
        """Digest the window's pages and buffer its click feedback."""
        if self.per_query:
            self._finish_per_query(trace, start, end)
            return
        shards, lanes = self._w_shards, self._w_lanes.tolist()
        pages = self._w_pages
        router = self.router
        window = end - start

        # Result-page digest over the window, in query order.  A streaming
        # CRC over equal bytes gives the same digest as the standalone
        # per-query accumulation.
        grid = None
        if len(lanes) == 1:
            page = pages[lanes[0]]
            self.pages_crc = zlib.crc32(page.tobytes() * window, self.pages_crc)
        else:
            rows = [pages[lane] for lane in lanes]
            row_of_query = self._w_lanes.searchsorted(shards)
            if len({row.size for row in rows}) == 1:
                # One (lanes, k) grid; its rows in query order are the pages
                # (a row ``take`` is several times faster than ``grid[rows]``).
                grid = np.concatenate(rows).reshape(len(rows), -1)
                self.pages_crc = zlib.crc32(
                    grid.take(row_of_query, axis=0).tobytes(), self.pages_crc
                )
            else:  # ragged page lengths (k exceeds a shard's size)
                for lane_of_query in shards.tolist():
                    self.pages_crc = zlib.crc32(
                        pages[lane_of_query].tobytes(), self.pages_crc
                    )

        # ``np.add.reduce`` is ``ndarray.sum`` without its Python wrapper:
        # the same pairwise sum, bit for bit.
        if clicks.size:
            positions = positions_by_k[self.variant.k]
            if len(lanes) == 1:
                lane_index = lanes[0]
                page = pages[lane_index]
                ranks = np.minimum(positions, page.size - 1)
                clicked = page[ranks].astype(np.int64, copy=False)
                # Buffer straight into the router's per-shard feedback lists
                # (the shard is already known, so rehashing the query id the
                # way submit_feedback does would be pure overhead).
                router._pending_indices[lane_index].extend(clicked.tolist())
                router._pending_visits[lane_index].extend([1.0] * clicked.size)
                quality = router.engines[lane_index].state.pool.quality
                self.clicked_quality_sum += float(np.add.reduce(quality[clicked]))
            else:
                click_rows = row_of_query[clicks]
                if grid is not None:
                    width = grid.shape[1]
                    ranks = np.minimum(positions, width - 1)
                    clicked = grid.ravel()[click_rows * width + ranks]
                else:  # each lane clips the ranks to its own page length
                    clicked = np.empty(clicks.size, dtype=np.int64)
                    for row, page in enumerate(rows):
                        mine = click_rows == row
                        clicked[mine] = page[np.minimum(positions[mine], page.size - 1)]
                clicked = clicked.astype(np.int64, copy=False)
                for row, lane_index in enumerate(lanes):
                    values = clicked[click_rows == row]
                    if not values.size:
                        continue
                    router._pending_indices[lane_index].extend(values.tolist())
                    router._pending_visits[lane_index].extend([1.0] * values.size)
                    quality = router.engines[lane_index].state.pool.quality
                    self.clicked_quality_sum += float(np.add.reduce(quality[values]))
            router.feedback_buffered += int(clicks.size)
            self.feedback_events += int(clicks.size)
            self.clicked_crc = zlib.crc32(clicked.tobytes(), self.clicked_crc)

        router.queries_routed += window
        per_shard = router.queries_per_shard
        for lane_index, count in zip(lanes, self._w_counts, strict=True):
            per_shard[lane_index] += count
            engine = router.engines[lane_index]
            if engine.cache is not None and count > 1:
                engine.cache.stats.hits += count - 1

    def _finish_per_query(
        self, trace: RecordedTrace, start: int, end: int
    ) -> None:
        """Exact per-query window replay for uncached randomized variants.

        Every standalone ``serve`` legitimately re-rolls its promotion
        coins here, so there is nothing to collapse: the loop body is that
        of :func:`repro.simulation.replay.replay_trace` — ``router.serve``,
        then ``router.submit_feedback`` for a click.
        """
        router = self.router
        k = self.variant.k
        clicked: List[int] = []
        for position in range(start, end):
            query_id = int(trace.query_ids[position])
            page = router.serve(query_id, k)
            self.pages_crc = zlib.crc32(page.tobytes(), self.pages_crc)
            if trace.coin_u[position] < trace.feedback_rate:
                rank = int(
                    np.searchsorted(
                        self.click_cdf, trace.position_u[position], side="right"
                    )
                )
                clicked.append(int(page[min(rank, page.size - 1)]))
                self.clicked_quality_sum += float(
                    router.engines[router.shard_for(query_id)].state.pool.quality[
                        clicked[-1]
                    ]
                )
                router.submit_feedback(query_id, clicked[-1])
        self.feedback_events += len(clicked)
        if clicked:
            self.clicked_crc = zlib.crc32(
                np.asarray(clicked, dtype=np.int64).tobytes(), self.clicked_crc
            )

    # --------------------------------------------------------------- results

    def result(self, trace: RecordedTrace):
        """Freeze this variant's replay into a :class:`TraceReplayResult`."""
        from repro.simulation.replay import snapshot_router

        result = snapshot_router(self.router)
        result.queries = trace.n_queries
        result.feedback_events = self.feedback_events
        result.pages_crc = self.pages_crc
        result.clicked_crc = self.clicked_crc  # crc32 of b"" is 0, matching
        result.clicked_quality_sum = self.clicked_quality_sum
        return result


class ServingSweep:
    """Replays one recorded stream against R serving variants in lockstep.

    Construction builds each variant's router exactly as
    :func:`build_variant_router` does for the standalone baseline (same
    per-variant seeds via :func:`variant_seed`), so parity holds from the
    first served page.  :meth:`run` then advances all variants window by
    window; see the module docstring for the algorithm.
    """

    def __init__(
        self,
        community: CommunityConfig,
        variants: Sequence[SweepVariant],
        *,
        seed: Optional[int] = None,
        seeds: Optional[Sequence] = None,
        attention: Optional[AttentionModel] = None,
        warm_awareness: bool = False,
    ) -> None:
        variants = list(variants)
        if not variants:
            raise ValueError("a sweep needs at least one variant")
        self.community = community
        self.variants = variants
        self.attention = attention or PowerLawAttention()
        if seeds is None:
            seeds = [variant_seed(seed, index) for index in range(len(variants))]
        if len(seeds) != len(variants):
            raise ValueError("need exactly one seed per variant")
        self._replays = [
            _VariantReplay(
                variant,
                build_variant_router(
                    community, variant, child, warm_awareness=warm_awareness
                ),
                self.attention,
            )
            for variant, child in zip(variants, seeds, strict=True)
        ]
        self._inverse: Optional[np.ndarray] = None  # set per run()
        self._stack_lane_state()

    def _stack_lane_state(self) -> None:
        """Re-bind equal-size lanes' per-page state to shared (L, n) matrices.

        Every lane's popularity store stays a live ``PopularityState`` —
        but its backing arrays (awareness, materialized popularity, dirty
        mask, quality) become *row views* of one matrix per community
        size.  Engine and state code keeps mutating its rows in place and
        never notices; the fluid feedback flush addresses all lanes of a
        group through one flat gather/scatter instead of L small ones.  A
        lane alone at its size gets a group of one, so every fluid lane
        flushes the same way.
        """
        groups: Dict[Tuple[int, int], List[ServingEngine]] = {}
        for replay in self._replays:
            for engine in replay.router.engines:
                state = engine.state
                key = (state.n, state.pool.monitored_population)
                groups.setdefault(key, []).append(engine)
        self._groups: List[_LaneGroup] = []
        self._lane_group: Dict[int, Tuple[int, int]] = {}
        for (n, _), engines in sorted(groups.items()):
            group_index = len(self._groups)
            self._groups.append(_LaneGroup(engines, n))
            for row, engine in enumerate(engines):
                self._lane_group[id(engine)] = (group_index, row)

    @property
    def routers(self) -> List[ShardedRouter]:
        """The per-variant routers (parity inspection and tests)."""
        return [replay.router for replay in self._replays]

    def run(self, trace: RecordedTrace, telemetry=None) -> List:
        """Replay the trace against every variant; one result per variant.

        Returns one :class:`~repro.simulation.replay.TraceReplayResult`
        per variant, in variant order.  With a live ``telemetry`` recorder
        the sweep emits one windowed row per (flush/day boundary, variant)
        — the per-variant counter deltas over that trace window — giving
        the figure drivers a stream-position axis without perturbing the
        lockstep hot path (rows are derived from ``router.stats()`` at
        boundaries only).
        """
        query_ids = np.asarray(trace.query_ids, dtype=np.int64)
        unique_ids, inverse = np.unique(query_ids, return_inverse=True)
        self._inverse = inverse
        shard_counts = {
            replay.variant.n_shards
            for replay in self._replays
            if replay.variant.n_shards > 1
        }
        if shard_counts:
            hashes = np.asarray(
                [stable_shard_hash(int(qid)) for qid in unique_ids],
                dtype=np.int64,
            )
            tables = {count: hashes % count for count in shard_counts}
            for replay in self._replays:
                if replay.variant.n_shards > 1:
                    replay.shard_table = tables[replay.variant.n_shards]

        live = telemetry is not None and telemetry.enabled
        if live:
            baselines = [dict(replay.router.stats()) for replay in self._replays]
        previous = 0
        for boundary in trace.boundaries():
            boundary = int(boundary)
            if boundary > previous:
                self._window(trace, previous, boundary)
            if boundary % trace.flush_every == 0:
                self._flush_all()
            if trace.day_every is not None and boundary % trace.day_every == 0:
                self._flush_all()  # advance_day applies buffered feedback first
                for replay in self._replays:
                    replay.router.advance_day()
            if live and boundary > previous:
                self._emit_boundary_rows(telemetry, baselines, previous, boundary)
            previous = boundary
        self._flush_all()
        return [replay.result(trace) for replay in self._replays]

    def _emit_boundary_rows(
        self, telemetry, baselines: List[Dict[str, float]], start: int, end: int
    ) -> None:
        """Emit per-variant counter deltas for one trace window."""
        for replay, baseline in zip(self._replays, baselines, strict=True):
            current = replay.router.stats()
            row: Dict[str, float] = {
                "kind": "sweep",
                "variant": replay.variant.label(),
                "event_start": float(start),
                "event_end": float(end),
            }
            for name, value in current.items():
                if name in ("n_shards", "n_pages", "cache_hit_rate"):
                    continue
                row[name] = value - baseline.get(name, 0.0)
            hits = row.get("cache_hits", 0.0)
            lookups = hits + row.get("cache_misses", 0.0)
            row["cache_hit_rate"] = hits / lookups if lookups else 0.0
            telemetry.emit_row(row)
            baseline.update(current)

    # ------------------------------------------------------------- internals

    def _window(self, trace: RecordedTrace, start: int, end: int) -> None:
        inverse_w = self._inverse[start:end]
        clicks = np.flatnonzero(
            trace.coin_u[start:end] < trace.feedback_rate
        )
        positions_u = np.asarray(trace.position_u[start:end])

        for replay in self._replays:
            replay.route(inverse_w)
        # Click ranks only depend on (attention, k); share the CDF inversion
        # across the variants that request the same page length.
        positions_by_k: Dict[int, np.ndarray] = {}
        if clicks.size:
            for replay in self._replays:
                k = replay.variant.k
                if k not in positions_by_k:
                    positions_by_k[k] = np.searchsorted(
                        replay.click_cdf, positions_u[clicks], side="right"
                    )
        for replay in self._replays:
            replay.finish(trace, start, end, clicks, positions_by_k)

    def _flush_all(self) -> None:
        """Apply every router's buffered feedback, batched across lanes.

        Replicates ``ShardedRouter.flush_feedback`` — the same per-lane
        events, the same per-lane version bump, the same ``flushes``
        accounting — but runs the fluid-mode awareness arithmetic of
        ``PopularityState.apply_visits_at`` once per lane group, over the
        concatenation of its lanes' batches.  Per-page visit sums
        use per-lane composite keys, so each lane's touched set, summation
        order and elementwise update are bit-identical to its standalone
        flush.  Stochastic lanes (whose awareness update draws from the
        lane's generator) fall back to the per-lane path.
        """
        grouped: Dict[int, List[Tuple[int, ServingEngine, List[int], List[float]]]] = {}
        for replay in self._replays:
            router = replay.router
            applied = 0
            for shard, engine in enumerate(router.engines):
                indices = router._pending_indices[shard]
                if not indices:
                    continue
                visits = router._pending_visits[shard]
                applied += len(indices)
                if engine.state.mode == "fluid":
                    group_index, row = self._lane_group[id(engine)]
                    grouped.setdefault(group_index, []).append(
                        (row, engine, indices, visits)
                    )
                else:
                    engine.apply_feedback(
                        np.asarray(indices, dtype=int), np.asarray(visits)
                    )
                router._pending_indices[shard] = []
                router._pending_visits[shard] = []
            if applied:
                router.flushes += 1
        for group_index, entries in grouped.items():
            self._apply_group_feedback(self._groups[group_index], entries)

    @staticmethod
    def _apply_group_feedback(
        group: _LaneGroup,
        entries: List[Tuple[int, ServingEngine, List[int], List[float]]],
    ) -> None:
        """Fluid feedback for a stacked lane group, as one flat kernel call.

        Because the group's awareness/popularity/dirty state lives in
        shared ``(L, n)`` matrices, the per-lane gather/scatter collapses
        to one ``feedback_flush`` kernel call over composite
        ``row * n + page`` keys — the same kernel the single-lane
        ``PopularityState.apply_visits_at`` fluid path dispatches to, so
        the arithmetic is elementwise identical per entry by construction.
        """
        n = group.n
        offsets: List[int] = []
        pages: List[int] = []
        visits: List[float] = []
        for row, _, indices, batch in entries:
            offsets.append(row * n)
            pages += indices
            visits += batch
        # One conversion of the joined lists, not one small array per lane.
        keys = np.asarray(pages, dtype=np.int64)
        keys += np.repeat(offsets, [len(indices) for _, _, indices, _ in entries])
        touched, summed = sum_by_page(keys, np.asarray(visits, dtype=float))

        get_backend().feedback_flush(
            group.aware.ravel(),
            group.popularity.ravel(),
            group.quality.ravel(),
            group.dirty.ravel(),
            touched,
            summed,
            group.m,
        )
        for _, engine, _, _ in entries:
            engine.state.version += 1


@dataclass
class SweepResult:
    """Structured outcome of one lockstep sweep run.

    One row per variant; the per-variant entries are the same
    :class:`~repro.simulation.replay.TraceReplayResult` objects the
    standalone replay produces, which is what makes sweep-vs-standalone
    parity a one-call comparison (:meth:`TraceReplayResult.matches`).
    """

    variants: List[SweepVariant]
    results: List  # List[TraceReplayResult]
    queries: int
    elapsed_seconds: float

    @property
    def replicates(self) -> int:
        """Number of variants replayed."""
        return len(self.variants)

    @property
    def total_queries(self) -> int:
        """Replayed queries summed over variants."""
        return self.queries * self.replicates

    @property
    def queries_per_second(self) -> float:
        """Replayed query throughput across all variants."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_queries / self.elapsed_seconds

    def rows(self) -> List[Dict[str, float]]:
        """Flat per-variant metric rows for tables and figure drivers."""
        rows = []
        for variant, result in zip(self.variants, self.results, strict=True):
            row: Dict[str, float] = {
                "k": float(variant.k),
                "r": float(variant.r),
                "promote_k": float(variant.promote_k),
                "cache_capacity": float(variant.effective_cache_capacity or 0),
                "staleness_budget": float(variant.staleness_budget),
                "n_shards": float(variant.n_shards),
                "queries": float(result.queries),
                "feedback_events": float(result.feedback_events),
                "pages_crc": float(result.pages_crc),
            }
            if result.feedback_events:
                # QPC (quality per click): the paper's serving-quality axis.
                row["qpc"] = (
                    float(result.clicked_quality_sum) / result.feedback_events
                )
            row.update(result.stats)
            rows.append(row)
        return rows

    def render(self) -> str:
        """ASCII table of the sweep, one row per variant."""
        from repro.utils.tables import Table

        table = Table(
            ["variant", "queries", "feedback", "cache_hit_rate", "pages_crc"],
            title="sweep over %d variants (%d queries each)"
            % (self.replicates, self.queries),
        )
        for variant, result in zip(self.variants, self.results, strict=True):
            table.add_row(
                variant.label(),
                result.queries,
                result.feedback_events,
                result.stats.get("cache_hit_rate", 0.0),
                "%08x" % (result.pages_crc & 0xFFFFFFFF),
            )
        return table.render()


def _run_sweep_block(
    community: CommunityConfig,
    variants: List[SweepVariant],
    seeds: List,
    trace: RecordedTrace,
    attention: Optional[AttentionModel],
    warm_awareness: bool,
):
    """Worker entry point: replay one contiguous block of variants."""
    sweep = ServingSweep(
        community,
        variants,
        seeds=seeds,
        attention=attention,
        warm_awareness=warm_awareness,
    )
    return sweep.run(trace)


def run_sweep(
    community: CommunityConfig,
    variants: Sequence[SweepVariant],
    trace: RecordedTrace,
    seed: Optional[int] = None,
    n_workers: Optional[int] = None,
    attention: Optional[AttentionModel] = None,
    warm_awareness: bool = False,
    telemetry=None,
) -> SweepResult:
    """Replay a recorded stream against a variant grid, optionally sharded.

    Variants are independent, so with more than one worker the variant
    list is split into contiguous blocks, one :class:`ServingSweep` per
    worker process.  Per-variant seeds are derived from the global variant
    index, so the results are identical for every worker count.
    ``n_workers=None`` auto-sizes from ``os.cpu_count()`` via
    :func:`repro.utils.parallel.default_workers`.
    """
    variants = list(variants)
    if not variants:
        raise ValueError("run_sweep needs at least one variant")
    n_workers = default_workers(len(variants), n_workers)
    if telemetry is not None and telemetry.enabled:
        # A recorder is process-local state (open JSONL handle, window
        # ring); pool workers could not share it, so a live recorder pins
        # the sweep in-process.
        n_workers = 1
    started = time.perf_counter()
    if n_workers <= 1:
        sweep = ServingSweep(
            community,
            variants,
            seed=seed,
            attention=attention,
            warm_awareness=warm_awareness,
        )
        results = sweep.run(trace, telemetry=telemetry)
    else:
        blocks = np.array_split(np.arange(len(variants)), n_workers)
        collected: List[Optional[List]] = [None] * len(blocks)
        with ProcessPoolExecutor(max_workers=n_workers) as executor:
            futures = [
                executor.submit(
                    _run_sweep_block,
                    community,
                    [variants[int(i)] for i in block],
                    [variant_seed(seed, int(i)) for i in block],
                    trace,
                    attention,
                    warm_awareness,
                )
                for block in blocks
            ]
            for index, future in enumerate(futures):
                collected[index] = future.result()
        results = []
        for block_results in collected:
            results.extend(block_results or [])
    elapsed = time.perf_counter() - started
    return SweepResult(
        variants=variants,
        results=results,
        queries=trace.n_queries,
        elapsed_seconds=elapsed,
    )


def run_sweep_benchmark(
    n_pages: int = 2_000,
    n_queries: int = 2_400,
    variants: Optional[Sequence[SweepVariant]] = None,
    seed: int = 0,
    feedback_rate: float = 0.2,
    flush_every: int = 64,
    zipf_exponent: float = 1.1,
    n_distinct_queries: int = 256,
    day_every: Optional[int] = None,
    n_workers: Optional[int] = 1,
    warm_awareness: bool = True,
    check_parity: bool = True,
    sweep_repetitions: int = 3,
    telemetry_window: Optional[int] = None,
    telemetry_out: Optional[str] = None,
) -> Dict[str, float]:
    """Benchmark the lockstep sweep against R independent standalone replays.

    Records one trace, replays it once per variant through the standalone
    :func:`~repro.simulation.replay.replay_trace` loop (construction
    included — the work a naive parameter sweep performs R times), then
    replays the same trace through :func:`run_sweep`, and verifies that
    every variant's result is bit-identical between the two paths.

    ``n_workers`` defaults to 1 so the reported speedup is a same-core
    apples-to-apples comparison; pass ``None`` to let the sweep also shard
    variants across cores.  Both paths are timed best-of-
    ``sweep_repetitions``, *interleaved* (independent pass, then sweep,
    repeated) with the garbage collector paused inside the timed regions —
    a load spike or GC pause on a shared CI runner then hits both sides of
    the ratio alike instead of flaking it.
    """
    import gc

    from repro.simulation.replay import replay_trace

    community = DEFAULT_COMMUNITY.scaled(n_pages)
    variants = list(variants) if variants is not None else variant_grid()
    workload = StreamingWorkload(
        WorkloadConfig(
            n_distinct_queries=n_distinct_queries,
            zipf_exponent=zipf_exponent,
            k=max(variant.k for variant in variants),
            feedback_rate=feedback_rate,
            flush_every=flush_every,
        ),
        seed=derive_seed(seed, "sweep-stream"),
    )
    trace = record_trace(workload, n_queries, day_every=day_every)

    independent = None
    independent_seconds = float("inf")
    sweep = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(max(1, int(sweep_repetitions))):
            gc.collect()
            gc.disable()
            started = time.perf_counter()
            replays = []
            for index, variant in enumerate(variants):
                router = build_variant_router(
                    community,
                    variant,
                    variant_seed(seed, index),
                    warm_awareness=warm_awareness,
                )
                replays.append(replay_trace(router, trace, variant.k))
            elapsed = time.perf_counter() - started
            if elapsed < independent_seconds:
                independent_seconds = elapsed
            independent = replays  # identical results every repetition

            candidate = run_sweep(
                community,
                variants,
                trace,
                seed=seed,
                n_workers=n_workers,
                warm_awareness=warm_awareness,
            )
            if gc_was_enabled:
                gc.enable()
            if sweep is None or candidate.elapsed_seconds < sweep.elapsed_seconds:
                sweep = candidate
    finally:
        if gc_was_enabled:
            gc.enable()

    parity = None
    if check_parity:
        parity = all(
            ours.matches(theirs)
            for ours, theirs in zip(sweep.results, independent, strict=True)
        )

    recorder = None
    if telemetry_window is not None or telemetry_out is not None:
        # One extra instrumented sweep pass, outside the timed regions:
        # the reported speedup ratio stays telemetry-free while the JSONL
        # rows and snapshot describe the same trace/variants.
        from repro.telemetry import TelemetryRecorder

        recorder = TelemetryRecorder(
            window=telemetry_window or trace.flush_every,
            out=telemetry_out,
            label="sweep",
        )
        recorder.install_kernel_spans()
        try:
            run_sweep(
                community,
                variants,
                trace,
                seed=seed,
                n_workers=1,
                warm_awareness=warm_awareness,
                telemetry=recorder,
            )
        finally:
            recorder.close()

    replicates = len(variants)
    qps_sweep = sweep.queries_per_second
    qps_independent = (
        replicates * n_queries / independent_seconds
        if independent_seconds > 0
        else 0.0
    )
    hit_rates = [
        result.stats.get("cache_hit_rate", 0.0) for result in sweep.results
    ]
    report: Dict[str, float] = {
        "n_pages": float(n_pages),
        "queries": float(n_queries),
        "replicates": float(replicates),
        "sweep_seconds": sweep.elapsed_seconds,
        "independent_seconds": independent_seconds,
        "queries_per_second_sweep": qps_sweep,
        "queries_per_second_independent": qps_independent,
        "speedup_sweep_vs_independent": (
            qps_sweep / qps_independent if qps_independent > 0 else float("inf")
        ),
        "cache_hit_rate_mean": float(np.mean(hit_rates)) if hit_rates else 0.0,
        "feedback_events_total": float(
            sum(result.feedback_events for result in sweep.results)
        ),
    }
    if parity is not None:
        report["parity_bit_identical"] = 1.0 if parity else 0.0
    if recorder is not None:
        report.update(recorder.snapshot())
    return report


__all__ = [
    "SweepVariant",
    "variant_grid",
    "parse_grid_values",
    "variant_seed",
    "build_variant_router",
    "ServingSweep",
    "SweepResult",
    "run_sweep",
    "run_sweep_benchmark",
]
