"""The vectorized batch simulation engine: R replicates as one array program.

Every figure in the paper averages the day-stepped simulation over many
replicate runs.  The replicates are statistically independent and share the
same shape, so instead of looping a Python-level
:class:`~repro.simulation.engine.Simulator` per replicate, the
:class:`BatchSimulator` holds all pool state as ``(R, n)`` arrays and steps
every replicate per day with batched operations: one batched argsort for the
ranking (plus exact tie repair), one scatter for the visit shares, one
vectorized awareness update and one batched lifecycle pass.

Parity contract: replicate ``r`` consumes its own generator (the same
``spawn_rngs`` stream the sequential runner would hand to repetition ``r``)
in exactly the sequential order, so in fluid mode the per-replicate results
are **bit-identical** to running ``R`` sequential simulators — and in
stochastic mode as well, since the multinomial/binomial draws are taken from
the same streams over the same index sets.  ``tests/test_batch.py`` pins
this down.

Replicates also share no state, so for large ``R`` the simulator splits its
rows into contiguous blocks and steps them on threads: each block is a
simulator over a row slice whose arrays are views of the parent's, and it
draws from its rows' own generators, so the results do not depend on the
number of blocks.  numpy releases the GIL in every heavy call of a day, and
every counter and timing span stays in the one process.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from functools import partial
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.community.config import CommunityConfig
from repro.community.lifecycle import Lifecycle, PoissonLifecycle
from repro.community.page import BatchPagePool
from repro.core.kernels import get_backend
from repro.core.rankers import Ranker
from repro.core.kernels import ROUTE_STATS
from repro.core.rankers_context import BatchRankingContext
from repro.metrics.qpc import QPCAccumulator
from repro.metrics.tbp import tbp_from_trajectory
from repro.simulation.config import SimulationConfig
from repro.simulation.result import SimulationResult
from repro.telemetry.recorder import NULL_RECORDER
from repro.utils.parallel import default_workers, run_blocks
from repro.utils.rng import RandomSource, spawn_rngs
from repro.visits.attention import AttentionModel, PowerLawAttention
from repro.visits.surfing import MixedSurfingModel


class BatchSimulator:
    """Simulates ``R`` independent replicate communities in lockstep.

    Mirrors the :class:`~repro.simulation.engine.Simulator` day loop, with
    every per-page vector widened to an ``(R, n)`` matrix.  Custom rankers,
    promotion rules and lifecycles that only implement the sequential
    interface are supported through the per-row fallback entry points
    (``rank_batch`` / ``select_batch`` / ``step_batch`` defaults).

    Args:
        community: community configuration shared by all replicates.
        ranker: ranking method shared by all replicates (stateless).
        config: simulation window/mode settings.
        attention, surfing, lifecycle: as for the sequential simulator.
        replicates: number of replicate rows; ignored when ``rngs`` is given.
        rngs: per-replicate generators.  Pass the ``spawn_rngs`` family the
            sequential runner would use to obtain replicate-for-replicate
            parity; by default the family is spawned from ``config.seed``.
        history_length: recent popularity snapshots kept for history-aware
            rankers (the fallback path slices them per row).
        adaptive_rank: thread each day's deterministic order into the next
            day's ranking as a near-sorted hint, letting the kernel layer
            merge surviving sorted runs instead of re-sorting from scratch
            (``rank_day``'s ``prev_perm`` argument).  Results are
            bit-identical either way — the kernel falls back to the full
            sort whenever the day is not actually near-sorted.
        n_workers: number of contiguous replicate blocks stepped on
            concurrent threads; ``None`` sizes it with
            :func:`~repro.utils.parallel.default_workers` (at least
            :data:`~repro.utils.parallel.MIN_TASKS_PER_WORKER` rows per
            block, capped by the core count and ``REPRO_MAX_WORKERS``).
            A backend that is not ``thread_safe`` (numba) gets one block.
            Results are bit-identical for every block count.

    Each block is a simulator over rows ``[lo, hi)`` whose pool, share
    buffer and generators are views of this one's, with its own ranking
    hint and popularity history.  :meth:`step` runs block 0 on the calling
    thread and the others on the block pool, then joins them, so one day
    is still one ``step()``.  The blocks share the ranker, attention,
    surfing and lifecycle objects and call them concurrently, so custom
    ones must keep no per-call state on themselves (the built-in ones
    are frozen or stateless); run a stateful one with ``n_workers=1``.
    Once the rows are split, the ranking hint and history live on the
    blocks, not on this simulator.
    """

    def __init__(
        self,
        community: CommunityConfig,
        ranker: Ranker,
        config: Optional[SimulationConfig] = None,
        attention: Optional[AttentionModel] = None,
        surfing: Optional[MixedSurfingModel] = None,
        lifecycle: Optional[Lifecycle] = None,
        replicates: int = 1,
        rngs: Optional[Sequence[np.random.Generator]] = None,
        history_length: int = 0,
        adaptive_rank: bool = False,
        n_workers: Optional[int] = None,
    ) -> None:
        self.community = community
        self.ranker = ranker
        self.config = config or SimulationConfig()
        self.attention = attention or PowerLawAttention()
        self.surfing = surfing or MixedSurfingModel(surfing_fraction=0.0)
        self.lifecycle = lifecycle or PoissonLifecycle.from_lifetime(
            community.expected_lifetime_days
        )
        if history_length < 0:
            raise ValueError("history_length must be non-negative")
        self.history_length = int(history_length)

        if rngs is None:
            rngs = spawn_rngs(self.config.seed, replicates)
        self.rngs: List[np.random.Generator] = list(rngs)
        if not self.rngs:
            raise ValueError("BatchSimulator needs at least one replicate")

        R = self.replicates
        blocks = default_workers(R, n_workers) if get_backend().thread_safe else 1
        self.pool = BatchPagePool.from_config(community, self.rngs, n_workers=blocks)
        self.day = 0
        self._history: Deque[np.ndarray] = deque(maxlen=self.history_length or None)
        self._shares = np.empty((R, self.pool.n), dtype=float)
        self.adaptive_rank = bool(adaptive_rank)
        self._prev_order: Optional[np.ndarray] = None
        self.telemetry = NULL_RECORDER
        #: This simulator's rows of the day's visit matrix (all of them
        #: unless it is a block of another simulator).
        self._rows = slice(0, R)
        self._blocks: List[BatchSimulator] = (
            [self]
            if blocks == 1
            else [
                self._block(int(rows[0]), int(rows[-1]) + 1)
                for rows in np.array_split(np.arange(R), blocks)
            ]
        )

    @property
    def replicates(self) -> int:
        """Number of replicate communities ``R``."""
        return len(self.rngs)

    # ------------------------------------------------------------------ API

    def step(self, compute_all_visits: bool = True) -> Optional[np.ndarray]:
        """Advance every replicate by one day.

        The ranking routes through the active kernel backend (via the
        ranker's ``rank_batch``), and the whole post-ranking tail —
        attention-share scatter, optional surfing blend, monitored-visit
        allocation, awareness update — is one ``day_tail`` kernel call, so
        a fusing backend runs it as a single loop nest.

        Returns the ``(R, n)`` all-user visit matrix, or ``None`` when
        ``compute_all_visits`` is off (warm-up days, where nothing observes
        the visits and the extra elementwise pass would be wasted).
        """
        telemetry = self.telemetry
        if telemetry.enabled:
            day = self.day
            started = time.perf_counter()
            routes = ROUTE_STATS.as_dict() if self.adaptive_rank else None
            try:
                return self._step(compute_all_visits)
            finally:
                telemetry.record_day_step(day, time.perf_counter() - started)
                if routes is not None:
                    after = ROUTE_STATS.as_dict()
                    telemetry.record_rank_routes(
                        after["rank_route_full"] - routes["rank_route_full"],
                        after["rank_route_run_merge"]
                        - routes["rank_route_run_merge"],
                        after["rank_route_windowed"]
                        - routes["rank_route_windowed"],
                        after["rank_route_copy"] - routes["rank_route_copy"],
                        after["rank_displacement_sum"]
                        - routes["rank_displacement_sum"],
                    )
        return self._step(compute_all_visits)

    def _step(self, compute_all_visits: bool) -> Optional[np.ndarray]:
        tasks = [partial(block._advance, float(self.day)) for block in self._blocks]
        if get_backend().thread_safe:
            shares = run_blocks(tasks)
        else:  # the backend changed after construction: stay on this thread
            shares = [task() for task in tasks]
        self.day += 1
        if not compute_all_visits:
            return None
        # Allocated after the join, once the day's temporaries are freed.
        visits = np.empty(self._shares.shape)
        for block, block_shares in zip(self._blocks, shares, strict=True):
            np.multiply(
                block_shares, self.community.total_visit_rate, out=visits[block._rows]
            )
        return visits

    def _advance(self, now: float) -> np.ndarray:
        """One day of this simulator's rows; returns their visit shares."""
        pool = self.pool
        context = BatchRankingContext.from_batch_pool(
            pool,
            now=now,
            popularity_history=self._history_array(),
            prev_order=self._prev_order if self.adaptive_rank else None,
        )
        rankings = self.ranker.rank_batch(context, self.rngs)
        if self.adaptive_rank:
            # Built-in rankers record the deterministic order they computed;
            # it becomes tomorrow's near-sorted hint.  Custom rankers that
            # never set it simply keep the full-sort path.
            self._prev_order = context.deterministic_order

        surfing_fraction = 0.0
        surf_shares = None
        if self.surfing is not None and not self.surfing.is_pure_search:
            surfing_fraction = self.surfing.surfing_fraction
            surf_shares = self.surfing.surfing_shares_batch(context.popularity)
        shares = get_backend().day_tail(
            rankings,
            self.attention.visit_shares(pool.n),
            self.community.monitored_visit_rate,
            self.config.mode,
            self.rngs,
            pool.aware_count,
            pool.monitored_population,
            surfing_fraction=surfing_fraction,
            surf_shares=surf_shares,
            out_shares=self._shares,
        )
        self.lifecycle.step_batch(pool, now=now, rngs=self.rngs)
        if self.history_length > 0:
            self._history.append(pool.popularity.copy())
        return shares

    def run(self) -> List[SimulationResult]:
        """Run warm-up plus measurement; return one result per replicate."""
        config = self.config
        pool = self.pool
        R = self.replicates
        rows = np.arange(R)

        for _ in range(config.warmup_days):
            self.step(compute_all_visits=False)

        probe_slots = probe_ids = None
        probe_alive = None
        probe_popularity: List[np.ndarray] = []
        if config.probe_quality is not None:
            probe_slots, probe_ids = self._inject_probe(config.probe_quality)
            probe_alive = np.ones(R, dtype=bool)
            probe_days = np.zeros(R, dtype=int)

        measure_days = config.measure_days
        if config.probe_quality is not None:
            measure_days = max(measure_days, config.probe_horizon_days)

        accumulators = [QPCAccumulator() for _ in range(R)]
        quality = pool.quality
        for _ in range(measure_days):
            visits_all = self.step()
            for row in range(R):
                accumulators[row].update(visits_all[row], quality[row])
            if probe_slots is not None:
                probe_alive &= pool.page_ids[rows, probe_slots] == probe_ids
                probe_days += probe_alive
                popularity_col = (
                    pool.aware_count[rows, probe_slots]
                    / pool.monitored_population
                    * quality[rows, probe_slots]
                )
                probe_popularity.append(popularity_col)

        final_awareness = (
            pool.awareness if config.snapshot_awareness else None
        )
        probe_matrix = (
            np.asarray(probe_popularity) if probe_popularity else None
        )

        results: List[SimulationResult] = []
        for row in range(R):
            qpc_absolute = accumulators[row].value
            trajectory = None
            tbp = None
            if probe_slots is not None:
                length = int(probe_days[row])
                trajectory = (
                    probe_matrix[:length, row].copy()
                    if probe_matrix is not None
                    else np.zeros(0)
                )
                if trajectory.size:
                    tbp = tbp_from_trajectory(
                        trajectory, config.probe_quality, dt=1.0
                    )
            results.append(
                SimulationResult(
                    qpc_absolute=qpc_absolute,
                    qpc_normalized=SimulationResult.normalize(
                        qpc_absolute, quality[row], self.attention
                    ),
                    quality=quality[row].copy(),
                    final_awareness=(
                        final_awareness[row].copy()
                        if final_awareness is not None
                        else None
                    ),
                    probe_trajectory=trajectory,
                    probe_quality=config.probe_quality,
                    tbp_days=tbp,
                    days_simulated=self.day,
                )
            )
        return results

    # ------------------------------------------------------------ internals

    def _block(self, lo: int, hi: int) -> "BatchSimulator":
        """A simulator over rows ``[lo, hi)`` that writes into this one's arrays."""
        block = copy.copy(self)
        block.rngs = self.rngs[lo:hi]
        block.pool = self.pool.rows(lo, hi)
        block._shares = self._shares[lo:hi]
        block._history = deque(maxlen=self.history_length or None)
        block._rows = slice(lo, hi)
        block._blocks = [block]
        return block

    def _history_array(self) -> Optional[np.ndarray]:
        if self.history_length <= 0 or len(self._history) < 2:
            return None
        return np.asarray(list(self._history))

    def _inject_probe(self, quality: float):
        """Replace one slot per replicate with a probe page of ``quality``.

        Row-for-row identical to ``Simulator._inject_probe``: the slot whose
        quality is closest to the probe quality is recycled in place.
        """
        pool = self.pool
        slots = np.argmin(np.abs(pool.quality - quality), axis=1)
        for row, slot in enumerate(slots):
            pool.quality[row, slot] = float(quality)
            pool.replace_row_pages(row, np.array([slot]), now=float(self.day))
        page_ids = pool.page_ids[np.arange(self.replicates), slots].copy()
        return slots, page_ids


def run_batch(
    community: CommunityConfig,
    ranker: Ranker,
    config: Optional[SimulationConfig] = None,
    attention: Optional[AttentionModel] = None,
    surfing: Optional[MixedSurfingModel] = None,
    lifecycle: Optional[Lifecycle] = None,
    replicates: int = 1,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    seed: RandomSource = None,
    history_length: int = 0,
    n_workers: Optional[int] = None,
    adaptive_rank: bool = False,
    telemetry=None,
) -> List[SimulationResult]:
    """Run ``R`` replicates through the batch engine; one result per replicate.

    ``BatchSimulator(..., n_workers=n_workers).run()`` with the generators
    spawned from ``seed`` (default ``config.seed``) unless ``rngs`` is
    given.  ``n_workers`` is the number of replicate blocks stepped on
    threads (``None`` auto-sizes, ``1`` steps every row on the calling
    thread); the results, ordered by replicate, are identical for every
    value.  A ``telemetry`` recorder observes the run without changing
    how it executes: the blocks' kernel spans and route counters land in
    the one process, and each day is one ``day`` row.
    """
    config = config or SimulationConfig()
    if rngs is None:
        rngs = spawn_rngs(seed if seed is not None else config.seed, replicates)
    rngs = list(rngs)
    if not rngs:
        return []
    simulator = BatchSimulator(
        community,
        ranker,
        config,
        attention=attention,
        surfing=surfing,
        lifecycle=lifecycle,
        rngs=rngs,
        history_length=history_length,
        adaptive_rank=adaptive_rank,
        n_workers=n_workers,
    )
    if telemetry is not None:
        simulator.telemetry = telemetry
    return simulator.run()


__all__ = ["BatchSimulator", "run_batch"]
