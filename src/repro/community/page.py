"""Page state and the page pool used by the simulators.

A page carries its intrinsic quality ``Q(p)`` and the number of monitored
users currently aware of it.  Awareness ``A(p, t)`` is the fraction of
monitored users who have visited the page at least once, and popularity is
``P(p, t) = A(p, t) * Q(p)`` (Equation 1 of the paper).

The :class:`PagePool` keeps all per-page state in flat numpy arrays so that
ranking and visit allocation over communities of up to ``10^6`` pages stay
vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import List, Sequence

import numpy as np

from repro.utils.parallel import run_blocks
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive_int, check_probability


@dataclass
class Page:
    """A single Web page in a community.

    This object-level view is convenient for examples and the live study; the
    bulk simulator uses :class:`PagePool` arrays instead.
    """

    page_id: int
    quality: float
    created_at: float = 0.0
    aware_monitored_users: int = 0
    monitored_population: int = 100

    def __post_init__(self) -> None:
        check_probability("quality", self.quality)
        check_positive_int("monitored_population", self.monitored_population)
        if not 0 <= self.aware_monitored_users <= self.monitored_population:
            raise ValueError("aware_monitored_users out of range")

    @property
    def awareness(self) -> float:
        """Fraction of monitored users aware of the page (``A(p, t)``)."""
        return self.aware_monitored_users / self.monitored_population

    @property
    def popularity(self) -> float:
        """Popularity ``P(p, t) = A(p, t) * Q(p)``."""
        return self.awareness * self.quality

    def record_monitored_visit(self, user_is_new: bool) -> None:
        """Update awareness after a visit by a monitored user."""
        if user_is_new and self.aware_monitored_users < self.monitored_population:
            self.aware_monitored_users += 1

    def age(self, now: float) -> float:
        """Age of the page at time ``now`` (days)."""
        return max(0.0, now - self.created_at)


class PagePool:
    """Vectorized per-page state for an entire community.

    The pool stores, for every live page slot: quality, the count of aware
    monitored users (or a fractional expected count in fluid mode), the
    creation time, and a monotonically increasing page identifier that
    changes whenever the slot is recycled by the lifecycle process.
    """

    def __init__(
        self,
        qualities: np.ndarray,
        monitored_population: int,
        created_at: float = 0.0,
    ) -> None:
        qualities = np.asarray(qualities, dtype=float)
        if qualities.ndim != 1 or qualities.size == 0:
            raise ValueError("qualities must be a non-empty 1-D array")
        if np.any((qualities < 0) | (qualities > 1)):
            raise ValueError("all quality values must lie in [0, 1]")
        check_positive_int("monitored_population", monitored_population)
        self.monitored_population = int(monitored_population)
        self.quality = qualities.copy()
        self.aware_count = np.zeros_like(self.quality)
        self.created_at = np.full_like(self.quality, float(created_at))
        self.page_ids = np.arange(self.n, dtype=np.int64)
        self._next_page_id = self.n

    # --- Size and views ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of page slots in the community."""
        return int(self.quality.size)

    @property
    def awareness(self) -> np.ndarray:
        """Awareness vector ``A(p, t)`` in ``[0, 1]``."""
        return self.aware_count / self.monitored_population

    @property
    def popularity(self) -> np.ndarray:
        """Popularity vector ``P(p, t) = A * Q``."""
        return self.awareness * self.quality

    def ages(self, now: float) -> np.ndarray:
        """Ages (days) of all page slots at time ``now``."""
        return np.maximum(0.0, now - self.created_at)

    def zero_awareness_mask(self) -> np.ndarray:
        """Boolean mask of pages no monitored user has ever visited."""
        return self.aware_count <= 0

    # --- Mutation ----------------------------------------------------------

    def add_awareness(self, index: int, new_users: float) -> None:
        """Increase the aware-user count of one page, clipped to ``m``."""
        self.aware_count[index] = min(
            self.monitored_population, self.aware_count[index] + new_users
        )

    def add_awareness_bulk(self, new_users: np.ndarray) -> None:
        """Increase awareness for all pages at once (fluid mode)."""
        np.minimum(
            self.monitored_population,
            self.aware_count + np.asarray(new_users, dtype=float),
            out=self.aware_count,
        )

    def replace_pages(self, indices: np.ndarray, now: float) -> np.ndarray:
        """Retire the pages at ``indices`` and create fresh equal-quality pages.

        Following the paper's stationarity assumption, the replacement page
        has the same quality as the retired one but zero awareness.  Each
        replaced slot receives a brand-new page identifier.  Returns the slot
        indices that were replaced (useful for observers tracking churn).
        """
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            return indices
        self.aware_count[indices] = 0.0
        self.created_at[indices] = float(now)
        fresh = np.arange(
            self._next_page_id, self._next_page_id + indices.size, dtype=np.int64
        )
        self.page_ids[indices] = fresh
        self._next_page_id += indices.size
        return indices

    # --- Conversion --------------------------------------------------------

    def as_pages(self, now: float = 0.0) -> list:
        """Materialize the pool as a list of :class:`Page` objects."""
        return [
            Page(
                page_id=int(self.page_ids[i]),
                quality=float(self.quality[i]),
                created_at=float(self.created_at[i]),
                aware_monitored_users=int(round(self.aware_count[i])),
                monitored_population=self.monitored_population,
            )
            for i in range(self.n)
        ]

    @classmethod
    def from_config(cls, config, rng: RandomSource = None) -> "PagePool":
        """Build a pool from a :class:`~repro.community.CommunityConfig`."""
        qualities = config.sample_qualities(as_rng(rng))
        return cls(qualities, config.n_monitored_users)


class BatchPagePool:
    """Per-page state for ``R`` replicate communities as ``(R, n)`` arrays.

    The batched counterpart of :class:`PagePool`: row ``r`` holds replicate
    ``r``'s quality, aware-user counts, creation times and page identifiers.
    Each row has its own page-id counter so its bookkeeping is bit-identical
    to a standalone :class:`PagePool` evolved with the same random stream.
    The pool takes ownership of a float ``qualities`` matrix: it is not
    copied, and page replacement writes new qualities into it.
    """

    def __init__(
        self,
        qualities: np.ndarray,
        monitored_population: int,
        created_at: float = 0.0,
    ) -> None:
        qualities = np.asarray(qualities, dtype=float)
        if qualities.ndim != 2 or qualities.size == 0:
            raise ValueError("qualities must be a non-empty (R, n) matrix")
        if np.any((qualities < 0) | (qualities > 1)):
            raise ValueError("all quality values must lie in [0, 1]")
        check_positive_int("monitored_population", monitored_population)
        self.monitored_population = int(monitored_population)
        self.quality = qualities
        self.aware_count = np.zeros_like(self.quality)
        self.created_at = np.full_like(self.quality, float(created_at))
        self.page_ids = np.tile(np.arange(self.n, dtype=np.int64), (self.replicates, 1))
        self._next_page_id = np.full(self.replicates, self.n, dtype=np.int64)

    # --- Size and views ----------------------------------------------------

    @property
    def replicates(self) -> int:
        """Number of replicate communities ``R``."""
        return int(self.quality.shape[0])

    @property
    def n(self) -> int:
        """Number of page slots per community."""
        return int(self.quality.shape[1])

    @property
    def awareness(self) -> np.ndarray:
        """Awareness matrix ``A(p, t)`` in ``[0, 1]``."""
        return self.aware_count / self.monitored_population

    @property
    def popularity(self) -> np.ndarray:
        """Popularity matrix ``P(p, t) = A * Q``."""
        return self.awareness * self.quality

    def ages(self, now: float) -> np.ndarray:
        """Ages (days) of all page slots at time ``now``."""
        return np.maximum(0.0, now - self.created_at)

    def row_pool(self, row: int) -> PagePool:
        """A :class:`PagePool` sharing replicate ``row``'s state (views).

        Used by the fallback paths (custom lifecycles) so single-community
        code can mutate one replicate in place.  Page-id allocation through
        the view is written back to the batch counter.
        """
        pool = PagePool.__new__(PagePool)
        pool.monitored_population = self.monitored_population
        pool.quality = self.quality[row]
        pool.aware_count = self.aware_count[row]
        pool.created_at = self.created_at[row]
        pool.page_ids = self.page_ids[row]
        pool._next_page_id = int(self._next_page_id[row])
        return pool

    def sync_row_pool(self, row: int, pool: PagePool) -> None:
        """Write a row view's page-id counter back after mutation."""
        self._next_page_id[row] = pool._next_page_id

    def rows(self, lo: int, hi: int) -> "BatchPagePool":
        """A pool over replicates ``[lo, hi)`` whose arrays are views of this one's.

        Every write through the view — awareness, page replacement, the
        per-row page-id counters — lands in this pool's ``(R, n)`` arrays.
        """
        view = BatchPagePool.__new__(BatchPagePool)
        view.monitored_population = self.monitored_population
        view.quality = self.quality[lo:hi]
        view.aware_count = self.aware_count[lo:hi]
        view.created_at = self.created_at[lo:hi]
        view.page_ids = self.page_ids[lo:hi]
        view._next_page_id = self._next_page_id[lo:hi]
        return view

    # --- Mutation ----------------------------------------------------------

    def add_awareness_bulk(self, new_users: np.ndarray) -> None:
        """Increase awareness for all replicates at once, clipped to ``m``."""
        np.minimum(
            self.monitored_population,
            self.aware_count + np.asarray(new_users, dtype=float),
            out=self.aware_count,
        )

    def replace_row_pages(self, row: int, indices: np.ndarray, now: float) -> np.ndarray:
        """Retire/replace pages of one replicate, as ``PagePool.replace_pages``."""
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            return indices
        self.aware_count[row, indices] = 0.0
        self.created_at[row, indices] = float(now)
        start = self._next_page_id[row]
        self.page_ids[row, indices] = np.arange(
            start, start + indices.size, dtype=np.int64
        )
        self._next_page_id[row] += indices.size
        return indices

    @classmethod
    def from_config(
        cls, config, rngs: Sequence[np.random.Generator], n_workers: int = 1
    ) -> "BatchPagePool":
        """Build a pool of ``len(rngs)`` replicates from a community config.

        Each replicate's quality vector is drawn from its own generator, in
        the same way :meth:`PagePool.from_config` would with that generator,
        so the replicate-for-replicate parity with sequential runs starts at
        initialization.  The rows are sampled into one preallocated matrix,
        in ``n_workers`` contiguous blocks run concurrently
        (:func:`~repro.utils.parallel.run_blocks`); the matrix does not
        depend on ``n_workers``.
        """
        qualities = np.empty((len(rngs), config.n_pages), dtype=float)

        def sample(rows: np.ndarray) -> None:
            for row in rows:
                qualities[row] = config.sample_qualities(as_rng(rngs[row]))

        blocks = np.array_split(np.arange(len(rngs)), n_workers)
        run_blocks([partial(sample, rows) for rows in blocks])
        return cls(qualities, config.n_monitored_users)


def awareness_gain_batch(
    aware_count: np.ndarray,
    monitored_population: int,
    monitored_visits: np.ndarray,
    mode: str = "fluid",
    rngs: Sequence[np.random.Generator] = (),
) -> np.ndarray:
    """Batched :func:`awareness_gain` over ``(R, n)`` matrices.

    Row ``r`` equals ``awareness_gain(aware_count[r], m, visits[r], mode,
    rngs[r])`` bit for bit: the fluid expectation uses the same elementwise
    expression, and the stochastic branch draws each row's binomials from
    that row's generator over the same index set.
    """
    aware_count = np.asarray(aware_count, dtype=float)
    monitored_visits = np.asarray(monitored_visits, dtype=float)
    m = monitored_population
    unaware = m - aware_count
    p_new = (1.0 - 1.0 / m) ** monitored_visits
    np.subtract(1.0, p_new, out=p_new)
    if mode == "fluid":
        np.multiply(unaware, p_new, out=p_new)
        return p_new
    gained = np.zeros_like(aware_count)
    visited = monitored_visits > 0
    candidates = visited & (unaware > 0)
    for row in range(aware_count.shape[0]):
        if not np.any(visited[row]):
            continue
        idx = np.flatnonzero(candidates[row])
        if idx.size:
            gained[row, idx] = as_rng(rngs[row]).binomial(
                unaware[row, idx].astype(int), p_new[row, idx]
            )
    return gained


def awareness_gain(
    aware_count: np.ndarray,
    monitored_population: int,
    monitored_visits: np.ndarray,
    mode: str = "fluid",
    rng: RandomSource = None,
) -> np.ndarray:
    """Newly-aware monitored users per page after one batch of visits.

    A page receiving ``v`` monitored visits converts each of its unaware
    monitored users independently with probability ``1 - (1 - 1/m)**v`` —
    the chance that user appeared among the batch's visitors.  ``fluid``
    returns the expectation, ``stochastic`` a binomial sample.  Both the
    day-stepped :class:`~repro.simulation.engine.Simulator` and the online
    serving state funnel their awareness updates through this function so
    the two paths stay in exact agreement.
    """
    aware_count = np.asarray(aware_count, dtype=float)
    monitored_visits = np.asarray(monitored_visits, dtype=float)
    m = monitored_population
    visited = monitored_visits > 0
    if not np.any(visited):
        return np.zeros_like(aware_count)
    unaware = m - aware_count
    p_new = 1.0 - (1.0 - 1.0 / m) ** monitored_visits
    if mode == "fluid":
        return unaware * p_new
    gained = np.zeros(aware_count.size)
    idx = np.flatnonzero(visited & (unaware > 0))
    if idx.size:
        gained[idx] = as_rng(rng).binomial(unaware[idx].astype(int), p_new[idx])
    return gained


__all__ = [
    "Page",
    "PagePool",
    "BatchPagePool",
    "awareness_gain",
    "awareness_gain_batch",
]
