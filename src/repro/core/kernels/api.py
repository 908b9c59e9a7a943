"""The formal kernel API every compute backend implements.

Every hot path of the repository — the ``(R, n)`` batch-simulation day
step, the lockstep sweep's flush-window advance, and the serving order
maintenance — decomposes into six array kernels:

``rank_day``
    Batched descending popularity order with exact tie-breaking (the PR 2
    "batched quicksort + tie-run repair" construction).
``awareness_update``
    One day's awareness gain applied in place over ``(R, n)`` state.
``visit_allocate``
    Attention shares scattered to page indices (plus the optional surfing
    blend) and the monitored-visit allocation derived from them.
``promotion_merge``
    The batched randomized promotion merge over full rankings.
``lane_repair``
    Grouped merge-repair of maintained serving orders — the sweep's stale
    lanes repaired as one batched call instead of lane by lane.
``feedback_flush``
    The fluid-mode sparse feedback update over flat (possibly stacked)
    awareness/popularity state.

plus one documented composite, :meth:`KernelBackend.day_tail`, covering
everything a batch-simulation day does after the ranking is known.  The
composite exists because a fusing backend (numba) wants to run the whole
post-ranking tail as one loop nest rather than as two kernel calls; the
base-class default simply chains ``visit_allocate`` and
``awareness_update`` so non-fusing backends get it for free.

The parity contract is the repository-wide one: whatever backend executes
a kernel, the result must be **bit-identical** to the numpy reference
(``repro.core.kernels.numpy_backend``), which is itself bit-identical to
the sequential per-community code by construction.  The contract is
achievable because every random draw is *parity-mandated to stay in
numpy*: backends receive the caller's ``numpy.random.Generator`` objects
and must consume them through the shared helpers here (or ``super()``), so
only deterministic array math is ever reimplemented.
"""

from __future__ import annotations

import abc
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

TIE_BREAKERS = ("random", "age", "index")

VALID_KERNELS = (
    "rank_day",
    "awareness_update",
    "visit_allocate",
    "promotion_merge",
    "lane_repair",
    "feedback_flush",
)


def check_tie_breaker(tie_breaker: str) -> None:
    """Reject tie-break rules outside :data:`TIE_BREAKERS`."""
    if tie_breaker not in TIE_BREAKERS:
        raise ValueError(
            "tie_breaker must be one of %s, got %r" % (TIE_BREAKERS, tie_breaker)
        )


def draw_tie_keys(
    rngs: Sequence[np.random.Generator], shape: Tuple[int, int]
) -> np.ndarray:
    """Per-row uniform tie keys, drawn exactly as the sequential path draws.

    Parity-mandated RNG: every backend funnels its ``"random"`` tie-break
    draws through this one helper so row ``r`` consumes ``rngs[r]``
    identically to ``_deterministic_order(..., rng=rngs[r])`` — one
    ``random(n)`` call per row — regardless of which backend sorts.
    """
    R, n = shape
    tie_keys = np.empty((R, n), dtype=float)
    for row in range(R):
        rngs[row].random(out=tie_keys[row])
    return tie_keys


class RankRouteStats:
    """Cumulative per-row counters for the adaptive ``rank_day`` router.

    One module-level instance (:data:`ROUTE_STATS`) is shared by every
    backend: the numba backend updates the same object, so callers
    (benches, :class:`~repro.simulation.batch.BatchSimulator` telemetry,
    sweep resorts) sample route mix without caring which backend ran.
    Counters only ever increase; callers snapshot before/after a region
    and difference the totals.  ``displacement_sum``/``displacement_max``
    track the estimated (numpy) or realized (numba) per-row displacement
    bound of rows that took the windowed route.  Updates go through
    :meth:`record` under one lock, because replicate blocks rank on
    concurrent threads.
    """

    __slots__ = (
        "copy",
        "run_merge",
        "windowed",
        "full",
        "displacement_sum",
        "displacement_max",
        "_lock",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.copy = 0
            self.run_merge = 0
            self.windowed = 0
            self.full = 0
            self.displacement_sum = 0
            self.displacement_max = 0

    def record(
        self,
        copy: int = 0,
        run_merge: int = 0,
        windowed: int = 0,
        full: int = 0,
        displacement_sum: int = 0,
        displacement_max: int = 0,
    ) -> None:
        """Add one ranking call's per-row route counts."""
        with self._lock:
            self.copy += copy
            self.run_merge += run_merge
            self.windowed += windowed
            self.full += full
            self.displacement_sum += displacement_sum
            if displacement_max > self.displacement_max:
                self.displacement_max = displacement_max

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "rank_route_copy": self.copy,
                "rank_route_run_merge": self.run_merge,
                "rank_route_windowed": self.windowed,
                "rank_route_full": self.full,
                "rank_displacement_sum": self.displacement_sum,
                "rank_displacement_max": self.displacement_max,
            }


#: The shared route-mix counter (see :class:`RankRouteStats`).
ROUTE_STATS = RankRouteStats()


def merge_repair(
    order: np.ndarray,
    popularity: np.ndarray,
    dirty: np.ndarray,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact O(n + d log d) merge repair of one maintained descending order.

    The single-lane reference shared by ``ServingEngine._repair_order`` and
    the grouped :meth:`NumpyKernelBackend.lane_repair` kernel — one
    implementation, so lane-by-lane and grouped repairs cannot drift.  The
    ``dirty`` pages are extracted, sorted by descending popularity (stable
    over their ascending page index), and merged back *after* their
    equal-popularity keeps (``side="right"``), which is where a re-sorted
    tie group would place them.

    Returns ``(merged_order, scratch)``; ``scratch`` is the reusable
    all-``False`` boolean mask, handed back so hot callers can keep it.
    """
    n = order.size
    if scratch is None or scratch.size != n:
        scratch = np.zeros(n, dtype=bool)
    scratch[dirty] = True
    keep = order[~scratch[order]]
    scratch[dirty] = False  # leave the scratch clean for the next repair
    moved = dirty[np.argsort(-popularity[dirty], kind="stable")]
    positions = np.searchsorted(-popularity[keep], -popularity[moved], side="right")
    # Equivalent to np.insert(keep, positions, moved) — positions are
    # nondecreasing (moved is sorted), so each inserted element lands at
    # its original position plus the number of insertions before it —
    # without np.insert's generic-case overhead on the serving hot path.
    merged = np.empty(n, dtype=order.dtype)
    slots = positions + np.arange(moved.size)
    keep_mask = np.ones(n, dtype=bool)
    keep_mask[slots] = False
    merged[slots] = moved
    merged[keep_mask] = keep
    return merged, scratch


class KernelBackend(abc.ABC):
    """Dispatch target for the six day-step/serving kernels.

    Implementations are stateless singletons registered in
    :mod:`repro.core.kernels`; callers obtain the active one with
    ``get_backend()`` and never instantiate backends directly.
    """

    #: Registry name (``"numpy"``, ``"numba"``, ...).
    name: str = "abstract"

    #: Whether kernels may run on several Python threads at once.  The batch
    #: engine steps its replicate blocks on threads only when this holds.
    thread_safe: bool = True

    # ------------------------------------------------------------- kernels

    @abc.abstractmethod
    def rank_day(
        self,
        scores: np.ndarray,
        ages: Optional[np.ndarray],
        tie_breaker: str,
        rngs: Sequence[np.random.Generator],
        prev_perm: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched descending order over ``(R, n)`` scores with exact ties.

        Row ``r`` must equal ``np.lexsort`` over the sequential composite
        key (see ``repro.core.rankers._deterministic_order``) bit for bit,
        consuming ``rngs[r]`` via :func:`draw_tie_keys` when
        ``tie_breaker == "random"``.

        ``prev_perm`` is an optional ``(R, n)`` permutation hint — row
        ``r``'s ranking from the *previous* day.  Popularity drifts slowly
        between days, so yesterday's order viewed under today's scores is
        often a small number of sorted runs; a backend may then build the
        new permutation by merging those runs instead of re-sorting from
        scratch.  When the day is instead *densely* perturbed — too many
        runs to merge, but every page displaced by at most ``d`` ranks (the
        fluid steady state) — a backend may estimate ``d`` from the hint
        and sort overlapping width-``2d`` windows along yesterday's order
        (the displacement-bounded windowed route), verifying the bound
        after the fact.  The hint never changes the result: the permutation
        contract above is bit-identical with or without it (any sort order
        within equal primary keys is normalized by the exact tie repair),
        and a backend must fall back to the full sort whenever the hint is
        not actually near-sorted or a row violates its displacement bound.
        Tie-key draws are taken *before* the sort path is chosen, so RNG
        consumption is hint-independent.  Route choices and realized
        displacement bounds are accounted per row in
        :data:`repro.core.kernels.api.ROUTE_STATS` (shared by all
        backends).
        """

    @abc.abstractmethod
    def awareness_update(
        self,
        aware_count: np.ndarray,
        monitored_population: int,
        monitored_visits: np.ndarray,
        mode: str,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Apply one day's awareness gain in place; returns ``aware_count``.

        Fluid mode is the elementwise expectation
        ``min(m, a + (m - a) * (1 - (1 - 1/m)**v))``; stochastic mode draws
        row ``r``'s binomials from ``rngs[r]`` exactly as
        :func:`repro.community.page.awareness_gain_batch` does.
        """

    @abc.abstractmethod
    def visit_allocate(
        self,
        rankings: np.ndarray,
        shares_by_rank: np.ndarray,
        rate: float,
        mode: str,
        rngs: Sequence[np.random.Generator],
        surfing_fraction: float = 0.0,
        surf_shares: Optional[np.ndarray] = None,
        out_shares: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter rank shares to pages and allocate monitored visits.

        Returns ``(shares, monitored_visits)``, both ``(R, n)``.  With a
        non-zero ``surfing_fraction`` the scattered shares are blended with
        the precomputed ``surf_shares`` matrix exactly as
        :func:`repro.visits.allocation.rank_visit_shares_batch` blends.
        """

    @abc.abstractmethod
    def promotion_merge(
        self,
        perms: np.ndarray,
        promoted_mask: np.ndarray,
        k: int,
        r: float,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Batched randomized promotion merge; row-wise ``randomized_merge``."""

    @abc.abstractmethod
    def lane_repair(
        self,
        orders: Sequence[np.ndarray],
        popularity: Sequence[np.ndarray],
        dirty: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """Grouped merge-repair of maintained descending orders.

        One batched call repairs every lane of one community size: lane
        ``i``'s repaired order must be bit-identical to the sequential
        O(n + d log d) repair of ``ServingEngine._repair_order`` — extract
        the ``dirty[i]`` pages, sort them by ``-popularity[i]`` (stable
        over ascending page index), and merge them back after their equal-
        popularity keeps.  Callers guarantee ``0 < dirty[i].size < n // 2``
        (larger dirty sets take the full re-sort path through
        :meth:`rank_day`) and equal ``n`` across the call.
        """

    @abc.abstractmethod
    def feedback_flush(
        self,
        aware: np.ndarray,
        popularity: np.ndarray,
        quality: np.ndarray,
        dirty: np.ndarray,
        touched: np.ndarray,
        summed: np.ndarray,
        monitored_population: int,
    ) -> None:
        """Fluid-mode sparse feedback over flat state, in place.

        ``touched`` holds unique flat indices (a stacked lane group uses
        ``row * n + page`` keys over raveled matrices) and ``summed`` the
        per-index visit totals.  Applies the fluid awareness gain, refreshes
        the materialized popularity, and marks the dirty flags; version
        bumps stay with the caller.
        """

    # ----------------------------------------------------------- composite

    def day_tail(
        self,
        rankings: np.ndarray,
        shares_by_rank: np.ndarray,
        rate: float,
        mode: str,
        rngs: Sequence[np.random.Generator],
        aware_count: np.ndarray,
        monitored_population: int,
        surfing_fraction: float = 0.0,
        surf_shares: Optional[np.ndarray] = None,
        out_shares: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Everything a batch-simulation day does after ranking; returns shares.

        The default chains :meth:`visit_allocate` and
        :meth:`awareness_update`; fusing backends override it to run the
        whole fluid tail — share scatter, surfing blend, visit allocation,
        awareness gain, clip — as one loop nest.  ``aware_count`` is
        updated in place either way.
        """
        shares, monitored = self.visit_allocate(
            rankings,
            shares_by_rank,
            rate,
            mode,
            rngs,
            surfing_fraction=surfing_fraction,
            surf_shares=surf_shares,
            out_shares=out_shares,
        )
        self.awareness_update(
            aware_count, monitored_population, monitored, mode, rngs
        )
        return shares

    # ------------------------------------------------------------- utility

    def warmup(self) -> None:
        """Pre-compile / pre-allocate whatever the backend needs (no-op here).

        Benchmarks call this before timing so JIT compilation of a
        compiling backend never lands inside a measured region.
        """

    def describe(self) -> str:
        """Short human-readable backend tag."""
        return self.name


__all__ = [
    "KernelBackend",
    "RankRouteStats",
    "ROUTE_STATS",
    "TIE_BREAKERS",
    "VALID_KERNELS",
    "check_tie_breaker",
    "draw_tie_keys",
    "merge_repair",
]
