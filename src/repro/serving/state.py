"""Incremental popularity store for the online serving path.

The offline :class:`~repro.simulation.engine.Simulator` recomputes the whole
community's popularity every simulated day.  :class:`PopularityState` keeps
the same per-page arrays (via a wrapped :class:`~repro.community.PagePool`)
but is updated *incrementally*: a batch of visit feedback touches only the
pages that received visits, in O(batch) instead of O(n).

Every mutation bumps a monotone ``version`` counter and records which pages
changed.  Downstream consumers use the version for optimistic validate-on-
read (the result-page cache compares its stamp against the current version,
the OCC pattern of Laux & Laiho) and the dirty set for incremental partial
re-sorts of the serving order.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.community.config import CommunityConfig
from repro.community.page import PagePool, awareness_gain
from repro.core.kernels import get_backend
from repro.simulation.config import VALID_MODES
from repro.utils.rng import RandomSource, as_rng

try:  # pragma: no cover - absent only on exotic platforms
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None


def sum_by_page(
    indices: np.ndarray, visits: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct pages of a 1-D feedback batch and the float visits per page.

    Returns ``(touched, summed)``: the distinct ``indices`` ascending, in
    their dtype, and each page's visits summed.  The bytes equal those of
    ``np.unique(indices, return_inverse=True)`` followed by ``np.add.at``
    into zeros.  A stable sort keeps each page's visits in batch order, and
    ``np.bincount`` adds them one at a time onto 0.0 as ``np.add.at`` does
    (the pairwise ``np.add.reduceat`` would not), so a lone ``-0.0`` visit
    sums to ``+0.0`` as well.  A batch that repeats no page skips the
    bincount.
    """
    order = indices.argsort(kind="stable")
    keys = indices[order]
    fresh = keys[1:] != keys[:-1]
    if fresh.all():
        return keys, 0.0 + visits[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[0] = True
    starts[1:] = fresh
    return keys[starts], np.bincount(starts.cumsum() - 1, weights=visits[order])


class PopularityState:
    """Versioned, incrementally-updated popularity state of one community.

    Attributes:
        pool: the wrapped :class:`~repro.community.PagePool` holding quality,
            awareness counts, creation times and page identifiers.
        mode: ``"fluid"`` (expected-value awareness updates) or
            ``"stochastic"`` (binomial sampling), matching the simulator.
        version: monotone counter, incremented once per mutation batch.
    """

    def __init__(self, pool: PagePool, mode: str = "fluid") -> None:
        if mode not in VALID_MODES:
            raise ValueError("mode must be one of %s, got %r" % (VALID_MODES, mode))
        self.pool = pool
        self.mode = mode
        self.version = 0
        self._popularity = pool.popularity  # materialized; updated in place
        self._dirty_mask = np.zeros(pool.n, dtype=bool)

    @classmethod
    def from_config(
        cls,
        community: CommunityConfig,
        rng: RandomSource = None,
        mode: str = "fluid",
    ) -> "PopularityState":
        """Build a fresh zero-awareness state for ``community``."""
        return cls(PagePool.from_config(community, as_rng(rng)), mode=mode)

    # --- Views -------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of page slots."""
        return self.pool.n

    @property
    def popularity(self) -> np.ndarray:
        """Cached popularity vector ``P = A * Q``; do not mutate."""
        return self._popularity

    @property
    def quality(self) -> np.ndarray:
        """Per-page intrinsic quality."""
        return self.pool.quality

    def staleness(self, version_stamp: int) -> int:
        """How many mutation batches have landed since ``version_stamp``."""
        return self.version - int(version_stamp)

    # --- Mutation ----------------------------------------------------------

    def apply_visits_at(
        self,
        indices: np.ndarray,
        visits: np.ndarray,
        rng: RandomSource = None,
    ) -> None:
        """Apply a sparse batch of monitored visits; O(batch) work.

        ``indices`` may contain duplicates (several feedback events for the
        same page); :func:`sum_by_page` sums the visit counts per page before
        the awareness update, so the batch is equivalent to one day's worth
        of those visits landing together.

        The fluid-mode arithmetic routes through the kernel backend's
        ``feedback_flush`` (the same kernel the lockstep sweep's
        flush-window advance uses); the stochastic branch keeps the
        per-call binomial draws from the caller's generator.
        """
        indices = np.asarray(indices, dtype=int)
        visits = np.asarray(visits, dtype=float)
        if indices.shape != visits.shape:
            raise ValueError("indices and visits must have the same shape")
        if indices.size == 0:
            return
        touched, summed = sum_by_page(indices, visits)

        pool = self.pool
        if self.mode == "fluid":
            get_backend().feedback_flush(
                pool.aware_count,
                self._popularity,
                pool.quality,
                self._dirty_mask,
                touched,
                summed,
                pool.monitored_population,
            )
            self.version += 1
            return
        gained = awareness_gain(
            pool.aware_count[touched],
            pool.monitored_population,
            summed,
            mode=self.mode,
            rng=rng,
        )
        pool.aware_count[touched] = np.minimum(
            pool.monitored_population, pool.aware_count[touched] + gained
        )
        self._mark_changed(touched)

    def commit_visits_at(
        self,
        indices: np.ndarray,
        visits: np.ndarray,
        expected_version: int,
        rng: RandomSource = None,
    ) -> bool:
        """Conflict-checked feedback commit (the OCC write pattern).

        The writer presents the version it read its snapshot at; if the
        state has advanced since (a concurrent writer committed first),
        the commit is rejected *without touching any state* and the caller
        re-reads and retries.  This is the write-side complement of the
        cache's validate-on-read: Laux & Laiho's version-check UPDATE,
        where the WHERE clause matching zero rows signals the conflict.
        """
        if self.version != int(expected_version):
            return False
        self.apply_visits_at(indices, visits, rng=rng)
        return True

    def bump_version(self) -> None:
        """Advance the version without changing page state.

        Models a concurrent writer's committed-elsewhere mutation (used by
        the fault injector to manufacture OCC conflicts, and by journal
        replay to reproduce them): readers and writers holding the old
        version observe a conflict, but popularity itself is untouched.
        """
        self.version += 1

    def apply_visit_feedback(
        self, monitored_visits: np.ndarray, rng: RandomSource = None
    ) -> None:
        """Apply a full per-page visit vector (the day-replay parity path).

        Performs exactly the arithmetic of
        :meth:`Simulator._update_awareness` — same helper, same argument
        order — so a replayed day consumes the random stream identically.
        """
        pool = self.pool
        gained = awareness_gain(
            pool.aware_count,
            pool.monitored_population,
            monitored_visits,
            mode=self.mode,
            rng=rng,
        )
        pool.add_awareness_bulk(gained)
        self._mark_changed(np.flatnonzero(np.asarray(monitored_visits) > 0))

    def note_replaced(self, indices: np.ndarray) -> None:
        """Record that the lifecycle replaced ``indices`` in the wrapped pool."""
        indices = np.asarray(indices, dtype=int)
        if indices.size == 0:
            return
        self._mark_changed(indices)

    def set_awareness(self, aware_count: np.ndarray) -> None:
        """Overwrite the awareness counts wholesale (synthetic warm states).

        Benchmarks use this to jump straight to a steady-state-like awareness
        profile without simulating the warm-up.
        """
        aware_count = np.asarray(aware_count, dtype=float)
        if aware_count.shape != (self.n,):
            raise ValueError("aware_count must have shape (%d,)" % self.n)
        if np.any((aware_count < 0) | (aware_count > self.pool.monitored_population)):
            raise ValueError("aware_count values must lie in [0, m]")
        self.pool.aware_count[:] = aware_count
        self._mark_changed(np.arange(self.n))

    # --- Dirty tracking ----------------------------------------------------

    def consume_dirty(self) -> np.ndarray:
        """Return and clear the indices changed since the last consumption.

        Single-consumer protocol: the serving engine that maintains the
        sorted order calls this when repairing; anything else should rely on
        ``version`` alone.
        """
        dirty = self._dirty_mask.nonzero()[0]
        self._dirty_mask[:] = False
        return dirty

    def _mark_changed(self, indices: np.ndarray) -> None:
        pool = self.pool
        self._popularity[indices] = (
            pool.aware_count[indices] / pool.monitored_population
        ) * pool.quality[indices]
        self._dirty_mask[indices] = True
        self.version += 1


# --- Shared-memory popularity state -------------------------------------
#
# The serving pool hosts each shard's mutable popularity arrays in one
# ``multiprocessing.shared_memory`` block so that worker and client
# processes commit racing feedback against the *same* version word.  Block
# layout (all offsets 8-byte aligned):
#
#     int64[8]   header: version, committed events/batches, conflicts
#     float64[n] aware-user counts (the mutable popularity input)
#     float64[n] per-page quality (written once at creation)
#     bool[n]    cross-process dirty mask
#
# Everything else an engine needs (creation times, page ids, the sorted
# serving order) stays process-local: only the OCC write path and the
# popularity inputs must be shared.

_HEADER_SLOTS = 8
_SLOT_VERSION = 0
_SLOT_COMMITTED_EVENTS = 1
_SLOT_COMMITTED_BATCHES = 2
_SLOT_CONFLICTS = 3


def shared_memory_available() -> bool:
    """True iff ``multiprocessing.shared_memory`` works on this platform."""
    if _shared_memory is None:
        return False
    try:
        block = _shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):
        return False
    block.close()
    block.unlink()
    return True


def shared_block_nbytes(n_pages: int) -> int:
    """Size in bytes of one shard's shared popularity block."""
    return _HEADER_SLOTS * 8 + n_pages * 8 * 2 + n_pages


def _block_views(buf, n_pages: int):
    """(header, aware_count, quality, dirty) numpy views over one block."""
    header = np.ndarray((_HEADER_SLOTS,), dtype=np.int64, buffer=buf, offset=0)
    base = _HEADER_SLOTS * 8
    aware = np.ndarray((n_pages,), dtype=np.float64, buffer=buf, offset=base)
    quality = np.ndarray(
        (n_pages,), dtype=np.float64, buffer=buf, offset=base + n_pages * 8
    )
    dirty = np.ndarray(
        (n_pages,), dtype=np.bool_, buffer=buf, offset=base + n_pages * 16
    )
    return header, aware, quality, dirty


@dataclass(frozen=True)
class SharedShardHandle:
    """Picklable address of one shard's shared popularity block.

    The handle plus the shard's commit lock is everything another process
    needs to :meth:`SharedPopularityState.attach` to the live arrays.
    """

    name: str
    n_pages: int
    monitored_population: int
    mode: str = "fluid"


class SharedPopularityState(PopularityState):
    """A :class:`PopularityState` whose hot arrays live in shared memory.

    Same ``commit_visits_at`` contract as the base class, but the version
    word, awareness counts, quality and dirty mask are cross-process views,
    and the version-check-and-apply step runs under a per-shard lock so a
    commit is atomic.  Crucially the caller's version *read* stays outside
    the lock (``ShardedRouter._commit_shard`` reads ``state.version``
    before committing), so two processes that read the same version race
    for the commit and the loser observes a genuine OCC conflict — no
    fault script involved.

    The dirty set stays single-consumer: only the worker process that owns
    the shard's serving engine calls :meth:`consume_dirty` (which also
    refreshes the process-local popularity cache from the shared arrays);
    client writers only commit.
    """

    def __init__(
        self,
        shm,
        lock,
        n_pages: int,
        monitored_population: int,
        mode: str = "fluid",
        *,
        owner: bool = False,
    ) -> None:
        # Deliberately no super().__init__: the base would allocate local
        # arrays and zero a version this block may already carry.
        if mode not in VALID_MODES:
            raise ValueError("mode must be one of %s, got %r" % (VALID_MODES, mode))
        header, aware, quality, dirty = _block_views(shm.buf, n_pages)
        pool = PagePool.__new__(PagePool)
        pool.monitored_population = int(monitored_population)
        pool.quality = quality
        pool.aware_count = aware
        pool.created_at = np.zeros(n_pages)
        pool.page_ids = np.arange(n_pages, dtype=np.int64)
        pool._next_page_id = n_pages
        self.pool = pool
        self.mode = mode
        self._shm = shm
        self._lock = lock
        self._owner = bool(owner)
        self._header = header
        self._dirty_mask = dirty
        # Process-local materialization of A/m * Q, seeded from the block's
        # current contents and refreshed per dirty batch in consume_dirty.
        self._popularity = (aware / pool.monitored_population) * quality

    @classmethod
    def create(
        cls,
        community: CommunityConfig,
        rng: RandomSource = None,
        mode: str = "fluid",
        lock=None,
    ) -> "SharedPopularityState":
        """Allocate a fresh zero-awareness shared block for ``community``.

        Consumes exactly the quality draw :meth:`PopularityState.from_config`
        would, so a shared shard built from generator ``g`` matches a local
        shard built from an identically-seeded generator bit for bit.
        """
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        qualities = community.sample_qualities(as_rng(rng))
        n_pages = int(qualities.size)
        shm = _shared_memory.SharedMemory(
            create=True, size=shared_block_nbytes(n_pages)
        )
        if lock is None:
            lock = multiprocessing.Lock()
        state = cls(
            shm,
            lock,
            n_pages,
            community.n_monitored_users,
            mode,
            owner=True,
        )
        state._header[:] = 0
        state.pool.aware_count[:] = 0.0
        state.pool.quality[:] = qualities
        state._dirty_mask[:] = False
        state._popularity[:] = 0.0
        return state

    @classmethod
    def attach(cls, handle: SharedShardHandle, lock) -> "SharedPopularityState":
        """Map another process's shard block (created elsewhere)."""
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        shm = _shared_memory.SharedMemory(name=handle.name)
        return cls(
            shm,
            lock,
            handle.n_pages,
            handle.monitored_population,
            handle.mode,
            owner=False,
        )

    @property
    def handle(self) -> SharedShardHandle:
        """The picklable address other processes attach with."""
        return SharedShardHandle(
            name=self._shm.name,
            n_pages=self.pool.n,
            monitored_population=self.pool.monitored_population,
            mode=self.mode,
        )

    # The base class stores ``version`` as a plain attribute; here it is the
    # shared header word, so inherited ``self.version += 1`` mutations land
    # in shared memory transparently.
    @property
    def version(self) -> int:
        return int(self._header[_SLOT_VERSION])

    @version.setter
    def version(self, value: int) -> None:
        self._header[_SLOT_VERSION] = int(value)

    def commit_visits_at(
        self,
        indices: np.ndarray,
        visits: np.ndarray,
        expected_version: int,
        rng: RandomSource = None,
    ) -> bool:
        indices = np.asarray(indices, dtype=int)
        visits = np.asarray(visits, dtype=float)
        with self._lock:
            if int(self._header[_SLOT_VERSION]) != int(expected_version):
                self._header[_SLOT_CONFLICTS] += 1
                return False
            self.apply_visits_at(indices, visits, rng=rng)
            self._header[_SLOT_COMMITTED_EVENTS] += int(indices.size)
            self._header[_SLOT_COMMITTED_BATCHES] += 1
            return True

    def bump_version(self) -> None:
        with self._lock:
            self._header[_SLOT_VERSION] += 1

    def consume_dirty(self) -> np.ndarray:
        with self._lock:
            dirty = self._dirty_mask.nonzero()[0]
            self._dirty_mask[:] = False
            if dirty.size:
                pool = self.pool
                self._popularity[dirty] = (
                    pool.aware_count[dirty] / pool.monitored_population
                ) * pool.quality[dirty]
        return dirty

    def counters(self) -> dict:
        """Cross-process commit accounting read from the shared header."""
        return {
            "shared_version": float(self._header[_SLOT_VERSION]),
            "shared_committed_events": float(self._header[_SLOT_COMMITTED_EVENTS]),
            "shared_committed_batches": float(self._header[_SLOT_COMMITTED_BATCHES]),
            "shared_conflicts": float(self._header[_SLOT_CONFLICTS]),
        }

    def close(self) -> None:
        """Unmap the block; the state keeps a read-only frozen copy."""
        self.pool.quality = self.pool.quality.copy()
        self.pool.aware_count = self.pool.aware_count.copy()
        self._dirty_mask = self._dirty_mask.copy()
        self._frozen_header = self._header.copy()
        self._header = self._frozen_header
        self._shm.close()

    def unlink(self) -> None:
        """Release the block (owner only; call after every process closed)."""
        if self._owner:
            self._shm.unlink()


__all__ = [
    "PopularityState",
    "SharedPopularityState",
    "SharedShardHandle",
    "shared_block_nbytes",
    "shared_memory_available",
    "sum_by_page",
]
