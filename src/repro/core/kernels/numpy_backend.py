"""The numpy kernels: the repository's exact array math, in one module.

Every hot path of the repository — the ``(R, n)`` batch-simulation day
step, the sweep's feedback flushes, and the serving order maintenance —
decomposes into the six array kernels named in :data:`VALID_KERNELS`, each
a method of :class:`NumpyKernelBackend`, plus one composite,
:meth:`~NumpyKernelBackend.day_tail`, covering everything a
batch-simulation day does after the ranking is known.  Callers obtain the
singleton :data:`BACKEND` through :func:`repro.core.kernels.get_backend`,
which hands out a timing proxy instead while telemetry is installed.

The parity contract is the repository-wide one: every kernel is
**bit-identical** to the sequential per-community code.  Where a
single-community reference helper exists (``awareness_gain_batch``,
``allocate_monitored_visits_batch``) the kernel delegates to it rather than
copying the arithmetic.  The parity-mandated RNG consumption — tie-key
draws, pool shuffles, merge coins, stochastic binomials/multinomials — goes
through the caller's ``numpy.random.Generator`` objects and follows the
sequential path draw for draw (see :func:`draw_tie_keys`); everything else
is deterministic array math.

Exactness argument for the deterministic order (``rank_day``): the
sequential ``_deterministic_order`` is ``np.lexsort`` over
``(tie_key, -scores)`` (or the age/index variants), i.e. the unique
ordering by the composite key ``(-score, tie, index)``.  Any sorting
algorithm that realises that total order returns the same permutation, so
the kernel is free to use the fastest route: an unstable batched quicksort
on the primary key alone, followed by an exact repair of every run of
equal primary keys using the secondary/tertiary keys.  Ties are rare in
fluid mode (only freshly replaced pages share popularity zero) but can be
large in stochastic mode, where integer awareness counts collide; the
repair handles both.

The merge kernel (``promotion_merge``) mirrors
``repro.core.merge.merge_positions`` through a closed form: with ``c[j]``
the running count of promotion-list picks after ``j + 1`` slots, draining
both lists is equivalent to clipping ``c`` to ``[j + 1 - n_det,
n_promoted]`` — the lower bound activates when the deterministic list runs
dry (every later slot takes from the promotion list) and the upper bound
when the promotion list does (every later slot takes from the
deterministic list).  ``tests/test_batch.py`` checks this equivalence
against ``merge_positions`` by brute force.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.community.page import awareness_gain_batch
from repro.utils.validation import check_probability
from repro.visits.allocation import allocate_monitored_visits_batch

TIE_BREAKERS = ("random", "age", "index")

VALID_KERNELS = (
    "rank_day",
    "awareness_update",
    "visit_allocate",
    "promotion_merge",
    "lane_repair",
    "feedback_flush",
)

#: Row-block height of the fluid day tail.  The unfused ``(R, n)`` tail
#: streams ~R*n*8-byte temporaries through L2 between every elementwise
#: pass; processing 8 rows per block keeps each temporary L1/L2-resident
#: while the passes stay full-width ufunc calls (the ROADMAP's row-blocked
#: day tail).
DAY_TAIL_BLOCK_ROWS = 8


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

    Parity-mandated RNG: ``rank_day`` draws its ``"random"`` tie keys
    through this one helper so row ``r`` consumes ``rngs[r]`` identically
    to ``_deterministic_order(..., rng=rngs[r])`` — one ``random(n)``
    call per row.
    """
    R, n = shape
    tie_keys = np.empty((R, n), dtype=float)
    for row in range(R):
        rngs[row].random(out=tie_keys[row])
    return tie_keys


class RankRouteStats:
    """Per-row route counters of a ``rank_day`` router; all four stay zero.

    ``rank_day`` has one route, the full sort, and records nothing here.
    The end-to-end benchmark still reads these four counters as its
    ``kernels.route_*`` metrics, so the shared instance
    (:data:`ROUTE_STATS`) stays importable until those metrics are dropped.
    """

    __slots__ = ("copy", "run_merge", "windowed", "full")

    def __init__(self) -> None:
        self.copy = self.run_merge = self.windowed = self.full = 0


#: The shared, always-zero route counters (see :class:`RankRouteStats`).
ROUTE_STATS = RankRouteStats()


def merge_repair(
    order: np.ndarray,
    popularity: np.ndarray,
    dirty: np.ndarray,
    scratch: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact O(n + d log d) merge repair of one maintained descending order.

    The single-lane reference shared by ``ServingEngine._compact`` and the
    grouped :meth:`NumpyKernelBackend.lane_repair` kernel.  The ``dirty``
    pages are extracted, sorted by descending popularity (stable over the
    order of ``dirty``), and merged back *after* their equal-popularity
    keeps (``side="right"``), which is where a re-sorted tie group would
    place them.

    Returns ``(merged_order, scratch)``.  ``scratch`` is a reusable boolean
    mask that is ``False`` outside ``dirty`` on entry and all ``False`` on
    return, handed back so hot callers can keep it.
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


#: Single-slot, thread-local scratch for :func:`_flat_take` (row offsets and
#: the flat index buffer for the most recent (R, n) shape).  A simulation run
#: gathers thousands of times at one fixed shape, so one slot captures the
#: win while sweeps over many community sizes retain at most one shape's
#: buffers per thread; thread-locality keeps concurrently stepping engines
#: (e.g. a ThreadPoolExecutor policy sweep) from clobbering each other.
_FLAT_TAKE_SCRATCH = threading.local()


def _flat_take(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Row-wise gather ``matrix[r, indices[r]]`` via one flat ``take``."""
    R, n = matrix.shape
    scratch = getattr(_FLAT_TAKE_SCRATCH, "slot", None)
    if scratch is None or scratch[0] != (R, n):
        scratch = (
            (R, n),
            (np.arange(R, dtype=np.int64) * n)[:, None],
            np.empty((R, n), dtype=np.int64),
        )
        _FLAT_TAKE_SCRATCH.slot = scratch
    _, offsets, flat_indices = scratch
    np.add(indices, offsets, out=flat_indices)
    return matrix.ravel().take(flat_indices)


def batched_merge_counts(
    flips: np.ndarray, n_deterministic: np.ndarray, n_promoted: np.ndarray
) -> np.ndarray:
    """Running promotion-pick counts per slot with both lists draining.

    ``flips`` is the ``(R, n)`` coin matrix (``True`` = try the promotion
    list), already ``False`` in each row's protected prefix and in rows that
    drew no coins.  Returns the clipped cumulative count ``c`` described in
    the module docstring; slot ``j`` takes from the promotion list exactly
    when ``c[j] > c[j - 1]``.
    """
    R, n = flips.shape
    counts = np.cumsum(flips, axis=1, dtype=np.int32)
    position = np.arange(1, n + 1, dtype=np.int32)
    lower = position[None, :] - n_deterministic.astype(np.int32)[:, None]
    np.maximum(counts, lower, out=counts)
    np.minimum(counts, n_promoted.astype(np.int32)[:, None], out=counts)
    return counts


class NumpyKernelBackend:
    """Pure-numpy kernels, bit-identical to the sequential engines.

    A stateless singleton (:data:`BACKEND`); callers obtain it with
    :func:`repro.core.kernels.get_backend` and never instantiate it
    directly.  Its kernels may run on several Python threads at once.
    """

    #: Backend name; the suffix of every kernel span (``rank_day@numpy``).
    name = "numpy"

    # ------------------------------------------------------------ rank_day

    def rank_day(
        self,
        scores: np.ndarray,
        ages: Optional[np.ndarray],
        tie_breaker: str,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Batched descending order over ``(R, n)`` scores with exact ties.

        ``ages`` is needed only for ``tie_breaker="age"``; ``rngs`` holds one
        generator per row and is consulted (one ``random(n)`` draw per row,
        via :func:`draw_tie_keys`) only for ``"random"``.  Row ``r`` of the
        returned ``(R, n)`` permutations equals
        ``_deterministic_order(scores[r], ages[r], tie_breaker, rngs[r])``
        (``repro.core.rankers``) bit for bit.
        """
        scores = np.asarray(scores, dtype=float)
        R, n = scores.shape
        tie_keys = None
        if tie_breaker == "random":
            tie_keys = draw_tie_keys(rngs, (R, n))
        elif tie_breaker == "age":
            if ages is None:
                # The sequential path substitutes zero ages when none are
                # given; all-equal ages make the age key a no-op, so the
                # stable fallback to page index decides every tie — exactly
                # the "index" rule.  Short-circuiting avoids allocating and
                # sorting a fresh (R, n) zero matrix every day.
                tie_breaker = "index"
            else:
                ages = np.asarray(ages, dtype=float)
        else:
            check_tie_breaker(tie_breaker)

        negated = -scores
        perm = np.argsort(negated, axis=1)  # unstable quicksort: ties repaired below
        sorted_keys = _flat_take(negated, perm)
        self._repair_tie_runs(perm, sorted_keys, tie_breaker, tie_keys, ages)
        return perm

    def _repair_tie_runs(
        self,
        perm: np.ndarray,
        sorted_keys: np.ndarray,
        tie_breaker: str,
        tie_keys: Optional[np.ndarray],
        ages: Optional[np.ndarray],
    ) -> None:
        """Reorder every run of equal primary keys by the exact tie-break rule.

        ``perm`` is modified in place.  Within a run the required order is:
        by tie key ascending (``random``), by age descending (``age``), or
        by page index ascending (``index``); remaining ties fall back to
        page index, matching ``np.lexsort`` stability in the sequential
        path.

        Under ``random`` a row is repaired by one int64 sort
        (:meth:`_repair_random_rows`).  Its tie runs are numbered 1, 2, ...
        in sorted order, each run member is keyed by
        ``run << 53 | int(tie_key * 2**53)``, and the members are written
        back in ``np.argsort`` order of that key: the run number keeps each
        member inside its own run's positions, and the low bits order it
        within the run.  The key reproduces the ``lexsort`` order bit for
        bit because ``Generator.random`` returns multiples of 2**-53 in
        [0, 1), which the scaling maps one to one onto the low 53 bits; any
        other value in [0, 1) truncates monotonically, so an error can only
        show up as two equal keys.  A row keeps the per-run loop below when
        two of its keys are equal (equal tie keys need page-index order),
        when it has 1024 or more runs (the run number would overflow the 10
        bits above the tie key), or when a tie key lies outside [0, 1).
        The ``age`` and ``index`` rules always take the per-run loop.
        """
        equal_next = sorted_keys[:, 1:] == sorted_keys[:, :-1]
        rows = np.flatnonzero(equal_next.any(axis=1))
        if tie_breaker == "random" and rows.size:
            rows = self._repair_random_rows(perm, equal_next, tie_keys, rows)
        for row in rows:
            pairs = np.flatnonzero(equal_next[row])
            # Contiguous stretches of `pairs` are single runs of equal keys.
            breaks = np.flatnonzero(np.diff(pairs) > 1)
            run_starts = np.concatenate(([0], breaks + 1))
            run_ends = np.concatenate((breaks, [pairs.size - 1]))
            for lo, hi in zip(run_starts, run_ends, strict=True):
                a, b = pairs[lo], pairs[hi] + 2  # run spans positions a..b-1
                members = np.sort(perm[row, a:b])
                if tie_breaker == "random":
                    members = members[
                        np.argsort(tie_keys[row, members], kind="stable")
                    ]
                elif tie_breaker == "age":
                    members = members[
                        np.argsort(-ages[row, members], kind="stable")
                    ]
                perm[row, a:b] = members

    def _repair_random_rows(
        self,
        perm: np.ndarray,
        equal_next: np.ndarray,
        tie_keys: np.ndarray,
        rows: np.ndarray,
    ) -> np.ndarray:
        """The integer-key repair of :meth:`_repair_tie_runs`, row by row.

        Repairs each row of ``rows`` in place, or leaves it unchanged when
        one of the three fallbacks applies; returns the rows left unchanged.
        """
        n = perm.shape[1]
        after = np.zeros(n, dtype=bool)  # position equals its predecessor
        member = np.empty(n, dtype=bool)  # position equals a neighbour
        declined: List[int] = []
        for row in rows.tolist():
            eq = equal_next[row]
            after[1:] = eq
            member[:] = after
            member[:-1] |= eq
            positions = np.flatnonzero(member)
            perm_row = perm[row]  # 1-D views index ~2x faster than perm[row, i]
            pages = perm_row[positions]
            ties = tie_keys[row][pages]
            if not (ties.min() >= 0.0 and ties.max() < 1.0):  # NaN fails too
                declined.append(row)
                continue
            # A member that does not equal its predecessor starts a run.
            keys = np.cumsum(~after[positions], dtype=np.int64)
            if keys[-1] >= 1 << 10:
                declined.append(row)
                continue
            keys <<= 53
            keys |= (ties * 2.0**53).astype(np.int64)
            order = np.argsort(keys)
            keys = keys[order]
            if (keys[1:] == keys[:-1]).any():
                declined.append(row)
                continue
            perm_row[positions] = pages[order]
        return np.asarray(declined, dtype=np.int64)

    # ---------------------------------------------------- promotion_merge

    def promotion_merge(
        self,
        perms: np.ndarray,
        promoted_mask: np.ndarray,
        k: int,
        r: float,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Batched randomized promotion merge; row-wise ``randomized_merge``.

        ``perms`` holds ``(R, n)`` deterministic orders (read, not
        modified), ``promoted_mask`` the ``(R, n)`` pool membership per page
        index, ``k`` the protected prefix length (ranks better than ``k``
        never move) and ``r`` the merge coin bias.  For each row this
        reproduces ``randomized_merge(deterministic, promoted, k, r,
        rngs[r])`` exactly: the promotion pool is the masked subsequence of
        the deterministic order, shuffled with the row's generator, and
        merged via the same coin flips.  Rows with an empty pool return
        their deterministic order untouched and consult their generator not
        at all, matching the sequential early return.
        """
        R, n = perms.shape
        if k < 1:
            raise ValueError("k must be >= 1, got %d" % k)
        check_probability("r", r)
        # An empty community merges to the empty permutation without
        # touching any generator, matching the sequential early return.
        if n == 0:
            return perms.copy()
        # A protected prefix beyond the community is the whole community
        # (merge_positions clamps identically via min(k - 1, n_det)).
        k = min(int(k), n)
        mask_by_rank = _flat_take(promoted_mask, perms)
        n_promoted = mask_by_rank.sum(axis=1)
        n_deterministic = n - n_promoted

        values = self._partition_by_mask(perms, mask_by_rank, n_promoted)

        # Per-row generator work (the only non-batched part, by parity): the
        # promotion-pool shuffle followed by the merge coin flips, in the
        # same order and with the same sizes as the sequential path.  The
        # uniform draws land in one (R, n) buffer so everything after runs
        # through the backend's merge pass.
        # Undrawn slots keep coin value 1.0, which never passes `< r`
        # (r <= 1), so rows or prefixes without sequential draws contribute
        # no flips.
        draws = np.ones((R, n), dtype=float)
        for row in range(R):
            pool_size = int(n_promoted[row])
            if pool_size == 0:
                continue
            generator = rngs[row]
            pool_view = values[row, n - pool_size:]
            if pool_size > 1:
                generator.shuffle(pool_view)
            taken = min(k - 1, n - pool_size)
            if taken >= n or n - pool_size - taken == 0:
                continue  # sequential path draws no coins in these cases
            generator.random(out=draws[row, taken:])

        return self._merge_by_draws(values, draws, r, n_deterministic, n_promoted)

    def _partition_by_mask(
        self,
        perms: np.ndarray,
        mask_by_rank: np.ndarray,
        n_promoted: np.ndarray,
    ) -> np.ndarray:
        """Partition each row into [deterministic..., promoted...], rank order.

        A stable argsort of the boolean mask is exactly that partition.
        """
        partition = np.argsort(mask_by_rank, axis=1, kind="stable")
        return _flat_take(perms, partition)

    def _merge_by_draws(
        self,
        values: np.ndarray,
        draws: np.ndarray,
        r: float,
        n_deterministic: np.ndarray,
        n_promoted: np.ndarray,
    ) -> np.ndarray:
        """Drain both lists by the drawn coins (clipped-cumsum slot algebra)."""
        R, n = values.shape
        flips = draws < r
        counts = batched_merge_counts(flips, n_deterministic, n_promoted)
        position = np.arange(n, dtype=np.int32)[None, :]
        # Slot j takes from the promotion pool iff the clipped count increased.
        take_promoted = np.empty((R, n), dtype=bool)
        take_promoted[:, 0] = counts[:, 0] > 0
        np.greater(counts[:, 1:], counts[:, :-1], out=take_promoted[:, 1:])
        source = np.where(
            take_promoted,
            n_deterministic.astype(np.int32)[:, None] + counts - 1,
            position - counts,
        )
        return _flat_take(values, source)

    # ---------------------------------------------------------- day tail

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
        rankings = np.asarray(rankings)
        R, n = rankings.shape
        if out_shares is None:
            out_shares = np.empty((R, n), dtype=float)
        # Row-wise 1-D scatters: numpy's fast path for (1-D index, 1-D
        # contiguous values) beats one 2-D advanced-index scatter with a
        # broadcast right-hand side by ~2x at these shapes, and a scatter
        # over duplicate-free indices is order-independent, so the result
        # is bit-identical either way.
        for row in range(R):
            out_shares[row][rankings[row]] = shares_by_rank
        if surfing_fraction:
            if surf_shares is None:
                raise ValueError("surfing blend requires the surf_shares matrix")
            out_shares *= 1.0 - surfing_fraction
            out_shares += surfing_fraction * surf_shares
        monitored = allocate_monitored_visits_batch(out_shares, rate, mode, rngs)
        return out_shares, monitored

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
        gained = awareness_gain_batch(
            aware_count,
            monitored_population,
            monitored_visits,
            mode=mode,
            rngs=rngs,
        )
        np.minimum(monitored_population, aware_count + gained, out=aware_count)
        return aware_count

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

        The reference is the chain :meth:`visit_allocate` then
        :meth:`awareness_update`, which updates ``aware_count`` in place.
        Stochastic mode and short batches run that chain as is (per-row
        generator draws already block naturally, and small ``R`` has
        nothing to gain).  The fluid tail of a taller batch runs the same
        passes over :data:`DAY_TAIL_BLOCK_ROWS`-row blocks with two reused
        block buffers, so each intermediate stays cache-resident instead of
        streaming full ``(R, n)`` temporaries between steps.  Every step is
        the *same ufunc on the same values* as the chain
        (``visit_allocate`` + ``awareness_gain_batch`` + clip), just on row
        slices, so the result is bit-identical per element.
        """
        rankings = np.asarray(rankings)
        R, n = rankings.shape
        if mode != "fluid" or R <= DAY_TAIL_BLOCK_ROWS or n == 0:
            shares, monitored = self.visit_allocate(
                rankings, shares_by_rank, rate, mode, rngs,
                surfing_fraction=surfing_fraction,
                surf_shares=surf_shares,
                out_shares=out_shares,
            )
            self.awareness_update(
                aware_count, monitored_population, monitored, mode, rngs
            )
            return shares
        if out_shares is None:
            out_shares = np.empty((R, n), dtype=float)
        if surfing_fraction and surf_shares is None:
            raise ValueError("surfing blend requires the surf_shares matrix")
        m = monitored_population
        base = 1.0 - 1.0 / m  # hoisted exactly as the pow ufunc hoists it
        block = DAY_TAIL_BLOCK_ROWS
        visits_buf = np.empty((block, n), dtype=float)
        work_buf = np.empty((block, n), dtype=float)
        for lo in range(0, R, block):
            hi = min(lo + block, R)
            shares_block = out_shares[lo:hi]
            for row in range(lo, hi):
                out_shares[row][rankings[row]] = shares_by_rank
            if surfing_fraction:
                shares_block *= 1.0 - surfing_fraction
                shares_block += surfing_fraction * surf_shares[lo:hi]
            rows = hi - lo
            visits = visits_buf[:rows]
            work = work_buf[:rows]
            aware_block = aware_count[lo:hi]
            # allocate_monitored_visits_batch (fluid): shares * rate.
            np.multiply(shares_block, rate, out=visits)
            # awareness_gain_batch (fluid), operation for operation:
            # unaware = m - aware; p_new = base ** visits; 1 - p_new;
            # gained = unaware * p_new; then the chain's clip.
            np.subtract(m, aware_block, out=work)
            np.power(base, visits, out=visits)
            np.subtract(1.0, visits, out=visits)
            np.multiply(work, visits, out=visits)
            np.add(aware_block, visits, out=visits)
            np.minimum(m, visits, out=aware_block)
        return out_shares

    # -------------------------------------------------------- lane_repair

    def lane_repair(
        self,
        orders: Sequence[np.ndarray],
        popularity: Sequence[np.ndarray],
        dirty: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """Grouped merge-repair of maintained descending orders.

        One batched call repairs every lane of one community size: lane
        ``i``'s repaired order must be bit-identical to
        :func:`merge_repair` of that lane — extract the ``dirty[i]`` pages,
        sort them by ``-popularity[i]`` (stable over the order of
        ``dirty[i]``), and merge them back after their equal-popularity
        keeps.  Callers guarantee ``0 < dirty[i].size < n // 2`` and equal
        ``n`` across the call.

        No program path calls it: the serving engine and the sweep repair
        lazily through ``ServingEngine._absorb``.  It is kept because the
        end-to-end benchmark's per-layer list names its spans, which the
        tracer builds from :data:`VALID_KERNELS`.
        """
        repaired: List[np.ndarray] = []
        scratch: Optional[np.ndarray] = None  # shared across equal-size lanes
        for lane_order, lane_pop, lane_dirty in zip(orders, popularity, dirty, strict=True):
            merged, scratch = merge_repair(lane_order, lane_pop, lane_dirty, scratch)
            repaired.append(merged)
        return repaired

    # ----------------------------------------------------- feedback_flush

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
        m = monitored_population
        values = aware[touched]
        # awareness_gain (fluid): gained = (m - aware) * (1 - (1 - 1/m)**v),
        # elementwise — identical per entry to the per-lane call.
        gained = (m - values) * (1.0 - (1.0 - 1.0 / m) ** summed)
        updated = np.minimum(float(m), values + gained)
        aware[touched] = updated
        popularity[touched] = (updated / m) * quality[touched]
        dirty[touched] = True


#: The singleton :func:`repro.core.kernels.get_backend` hands out.
BACKEND = NumpyKernelBackend()

__all__ = [
    "BACKEND",
    "ROUTE_STATS",
    "TIE_BREAKERS",
    "VALID_KERNELS",
    "NumpyKernelBackend",
    "RankRouteStats",
    "batched_merge_counts",
    "check_tie_breaker",
    "draw_tie_keys",
    "merge_repair",
]
