"""The numpy reference backend: the repository's exact kernel semantics.

Every kernel here is the code that used to live inline in
``repro.core.batch_rank``, ``repro.simulation.batch`` and
``repro.serving.sweep`` — carved out behind the
:class:`~repro.core.kernels.api.KernelBackend` API, not rewritten — so the
numpy backend is bit-identical to the pre-refactor engines by
construction.  Where a single-community reference helper exists
(``awareness_gain_batch``, ``allocate_monitored_visits_batch``) the kernel
delegates to it rather than copying the arithmetic.

Other backends subclass :class:`NumpyKernelBackend` and override only the
deterministic array math (``_repair_tie_runs``, ``_partition_by_mask``,
``_merge_by_draws``, the fluid elementwise passes); the parity-mandated
RNG consumption — tie-key draws, pool shuffles, merge coins, stochastic
binomials/multinomials — lives in the shared method bodies and is never
overridden.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.community.page import awareness_gain_batch
from repro.core.kernels.api import (
    ROUTE_STATS,
    KernelBackend,
    check_tie_breaker,
    draw_tie_keys,
    merge_repair,
)
from repro.utils.validation import check_probability
from repro.visits.allocation import allocate_monitored_visits_batch

#: Adaptive ``rank_day`` threshold (see :meth:`NumpyKernelBackend.rank_day`).
#: A row is treated as near-sorted when its break-adjacent moved set — at
#: most four pages per detected run boundary (two each side) — is no more
#: than ``n * ADAPTIVE_MAX_MOVED_FRACTION`` pages; beyond that the
#: O(n + d log d) re-insertion merge stops beating the O(n log n) full
#: sort and the row falls back to ``argsort``.
ADAPTIVE_MAX_MOVED_FRACTION = 0.125

#: Row-block size of the adaptive analysis, in elements: the re-insertion
#: pipeline runs ~12 elementwise passes over (rows, n) temporaries, so the
#: rows are processed in blocks of ~64k elements (512 KB of float64) to
#: keep every temporary cache-resident — the same row-blocking argument as
#: :data:`DAY_TAIL_BLOCK_ROWS`, sized by elements because ``n`` varies.
ADAPTIVE_BLOCK_ELEMENTS = 65536

#: Row-block height of the fluid day tail.  The unfused ``(R, n)`` tail
#: streams ~R*n*8-byte temporaries through L2 between every elementwise
#: pass; processing 8 rows per block keeps each temporary L1/L2-resident
#: while the passes stay full-width ufunc calls (the ROADMAP's row-blocked
#: day tail).
DAY_TAIL_BLOCK_ROWS = 8

#: Number of probe positions the windowed-route displacement estimator
#: samples per row.  The estimate costs one prefix-max pass plus one
#: vectorized comparison per power-of-two gap — negligible next to
#: either sort route — and its resolution is ``n / probes`` elements,
#: which lower-bounds the window radius the route can pick.  The probe
#: only *lower*-bounds the true maximum displacement (unprobed positions
#: may move further); the gap-doubling slack plus the power-of-two
#: round-up make the window wide enough in practice, and the post-sort
#: verification catches any row the estimate still undershoots.
ADAPTIVE_WINDOW_PROBES = 512

#: Smallest window radius the windowed route will use.  Below this the
#: per-pass reshape/argsort overhead dominates and the route cannot beat
#: a plain copy-or-merge anyway.
ADAPTIVE_WINDOW_MIN = 8


#: Thread-local packed-key buffer of the windowed sort
#: (:meth:`NumpyKernelBackend._windowed_sort_rows`): reused across days so
#: the route does not fault in a fresh ~(rows, n) arena every call.
_WINDOWED_SCRATCH = threading.local()


class NumpyKernelBackend(KernelBackend):
    """Pure-numpy kernels; always available, always the parity reference."""

    name = "numpy"

    # ------------------------------------------------------------ rank_day

    def rank_day(
        self,
        scores: np.ndarray,
        ages: Optional[np.ndarray],
        tie_breaker: str,
        rngs: Sequence[np.random.Generator],
        prev_perm: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        from repro.core.batch_rank import _flat_take

        scores = np.asarray(scores, dtype=float)
        R, n = scores.shape
        tie_keys = None
        if tie_breaker == "random":
            # Drawn before the sort path is chosen: RNG consumption must not
            # depend on whether the adaptive hint is taken (parity contract).
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
        verify_rows = None
        if prev_perm is not None and n > 0:
            prev_perm = np.asarray(prev_perm)
            if prev_perm.shape != (R, n):
                raise ValueError(
                    "prev_perm must have shape (%d, %d), got %s"
                    % (R, n, prev_perm.shape)
                )
            perm, verify_rows = self._rank_adaptive(negated, prev_perm)
        else:
            perm = np.argsort(negated, axis=1)  # unstable quicksort: ties repaired below
        sorted_keys = _flat_take(negated, perm)
        if verify_rows is not None and verify_rows.size:
            # The windowed route's overlap-consistency check, folded onto
            # the sorted-key gather every route pays anyway: a row whose
            # displacement bound was violated is not nondecreasing here
            # and is re-sorted exactly, so the estimate only ever affects
            # speed, never the result.
            if verify_rows.size == perm.shape[0]:
                checked = sorted_keys  # all rows windowed: skip the gather
            else:
                checked = sorted_keys[verify_rows]
            bad = verify_rows[np.any(checked[:, 1:] < checked[:, :-1], axis=1)]
            if bad.size:
                ROUTE_STATS.record(windowed=-bad.size, full=bad.size)
                perm[bad] = np.argsort(negated[bad], axis=1)
                sorted_keys[bad] = np.take_along_axis(
                    negated[bad], perm[bad], axis=1
                )
        self._repair_tie_runs(perm, sorted_keys, tie_breaker, tie_keys, ages)
        return perm

    # ----------------------------------------------- rank_day (adaptive)

    def _rank_adaptive(
        self, negated: np.ndarray, prev_perm: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Sort each row by merging yesterday's order where it survived.

        Yesterday's permutation viewed under today's keys decomposes into
        maximal nondecreasing runs (ties never break a run — the exact tie
        repair afterwards normalizes them anyway).  Rows split four ways,
        each handled batched across the rows that take it:

        * no run boundary — yesterday's order is already sorted, copy it;
        * few boundaries — extract the *moved set* (the two pages adjacent
          to every boundary), verify that the remaining spine is one
          sorted run, and binary-merge the sorted moved pages back into it
          (:meth:`_reinsert_moved`, O(n + d log d));
        * many boundaries but a small probed displacement bound ``d`` —
          the fluid steady-state shape: sort width-``2d`` windows along
          yesterday's order (:meth:`_rank_displaced`, O(n log d));
        * everything else — the day is not near-sorted: full ``argsort``.

        Every path produces *a* permutation sorted by the primary key,
        which is all the tie repair needs to make the result bit-identical
        to the full-sort path.  Returns ``(perm, verify_rows)``:
        ``verify_rows`` (possibly ``None``) lists the rows that took the
        windowed route, whose estimated bound the caller must verify
        against the sorted keys it gathers anyway.
        """
        from repro.core.batch_rank import _flat_take

        R, n = negated.shape
        prev_keys = _flat_take(negated, prev_perm)
        breaks = prev_keys[:, 1:] < prev_keys[:, :-1]
        break_counts = breaks.sum(axis=1)
        max_moved = max(4, int(n * ADAPTIVE_MAX_MOVED_FRACTION))
        sorted_rows = break_counts == 0
        candidate = ~sorted_rows & (4 * break_counts <= max_moved)
        displaced = ~sorted_rows & ~candidate
        # Uniform days skip the per-subset gathers: every row sorted
        # (quiet day), or every row churned (the fluid steady state —
        # the whole batch goes to the displacement-bounded route in one
        # call, full width: its window sorts are cache-local by
        # construction, so it needs no row blocking).
        if sorted_rows.all():
            ROUTE_STATS.record(copy=R)
            return prev_perm.copy(), None
        if displaced.all():
            return self._rank_displaced(negated, prev_keys, prev_perm)
        perm = np.empty((R, n), dtype=prev_perm.dtype)
        if sorted_rows.any():
            ROUTE_STATS.record(copy=int(sorted_rows.sum()))
            perm[sorted_rows] = prev_perm[sorted_rows]
        if candidate.any():
            # The re-insertion analysis is ~12 elementwise passes over
            # (rows, n) temporaries; cache-sized row blocks
            # (:data:`ADAPTIVE_BLOCK_ELEMENTS`) keep them resident.
            rows = np.flatnonzero(candidate)
            block = max(1, ADAPTIVE_BLOCK_ELEMENTS // max(1, n))
            for lo in range(0, rows.size, block):
                sub = rows[lo:lo + block]
                merged, healed = self._reinsert_moved(
                    prev_keys[sub], prev_perm[sub], breaks[sub]
                )
                ROUTE_STATS.record(run_merge=int(healed.sum()))
                perm[sub[healed]] = merged[healed]
                if not healed.all():
                    displaced[sub[~healed]] = True
        verify_rows = None
        if displaced.any():
            rows = np.flatnonzero(displaced)
            perm[rows], verify = self._rank_displaced(
                negated[rows], prev_keys[rows], prev_perm[rows]
            )
            if verify is not None:
                verify_rows = rows[verify]
        return perm, verify_rows

    def _rank_displaced(
        self, negated: np.ndarray, prev_keys: np.ndarray, prev_perm: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Displacement-bounded windowed sort of rows that declined run-merge.

        Fluid steady-state days defeat run-merging (thousands of run
        boundaries from near-tied tail churn) yet displace each page only
        a short distance.  For such rows a probe lower-bounds the maximum
        displacement ``d`` (:meth:`_estimate_displacement`), and two
        offset passes of disjoint width-``2d`` block sorts along
        yesterday's order fully sort any ``d``-displaced row
        (:meth:`_windowed_sort_rows`) in O(n log d) instead of
        O(n log n).  Rows whose estimate exceeds the ``2d > n/4`` cutoff
        take the full argsort instead; rows the estimate undershoots are
        caught by the caller's sorted-key verification and re-sorted — so
        the route is exact regardless of estimate quality, and the tie
        repair downstream makes it bit-identical to every other route.

        ``prev_keys`` are the float keys in yesterday's order.  Returns
        ``(perm, verify_rows)`` with ``verify_rows`` the (local) rows
        that took the windowed route.
        """
        L, n = negated.shape
        estimates = self._estimate_displacement(prev_keys)
        full_rows: List[int] = []
        buckets: dict = {}
        for i in range(L):
            d = max(ADAPTIVE_WINDOW_MIN, int(estimates[i]))
            d = 1 << (d - 1).bit_length()  # bucket rows by power-of-two radius
            if 2 * d > n // 4:
                full_rows.append(i)
            else:
                buckets.setdefault(d, []).append(i)
        if len(buckets) == 1 and not full_rows:
            # The fluid steady-state fast path: one shared bound, no
            # per-subset gathers.
            (d, row_list), = buckets.items()
            perm = self._windowed_sort_rows(prev_keys, prev_perm, d)
            ROUTE_STATS.record(windowed=L, displacement_sum=L * d, displacement_max=d)
            return perm, np.arange(L, dtype=np.int64)
        perm = np.empty((L, n), dtype=prev_perm.dtype)
        windowed: List[int] = []
        for d, row_list in buckets.items():
            rows = np.asarray(row_list, dtype=np.int64)
            perm[rows] = self._windowed_sort_rows(
                prev_keys[rows], prev_perm[rows], d
            )
            windowed.extend(row_list)
            ROUTE_STATS.record(
                windowed=rows.size,
                displacement_sum=int(rows.size) * d,
                displacement_max=d,
            )
        if full_rows:
            rows = np.asarray(full_rows, dtype=np.int64)
            perm[rows] = np.argsort(negated[rows], axis=1)
            ROUTE_STATS.record(full=rows.size)
        verify_rows = (
            np.asarray(sorted(windowed), dtype=np.int64) if windowed else None
        )
        return perm, verify_rows

    def _estimate_displacement(self, prev_keys: np.ndarray) -> np.ndarray:
        """Probe each row's maximum inversion span over a sparse sample.

        Over every ``stride``-th key, an inversion of gap ``g`` samples —
        ``sampled[i] < max(sampled[:i-g+1])`` — means some element must
        cross ``>= g`` whole strides when the row is sorted.  Gaps are
        probed at powers of two with one vectorized comparison per gap:
        a violation at gap ``2g`` implies one at gap ``g`` (the prefix
        max only grows), so the scan stops at the first gap no row
        violates.  The returned per-row bound ``(2*g_max + 1) * stride``
        covers the span such an inversion demands plus a stride of slack
        on each side for structure the sample cannot see; the caller's
        sorted-key verification covers everything else — the estimate
        only ever costs speed, never the result.
        """
        L, n = prev_keys.shape
        stride = max(1, n // ADAPTIVE_WINDOW_PROBES)
        sampled = np.ascontiguousarray(prev_keys[:, ::stride])
        prefix_max = np.maximum.accumulate(sampled, axis=1)
        m = sampled.shape[1]
        g_max = np.zeros(L, dtype=np.int64)
        g = 1
        while g < m:
            viol = (sampled[:, g:] < prefix_max[:, :-g]).any(axis=1)
            if not viol.any():
                break
            g_max[viol] = g
            g *= 2
        return (2 * g_max + 1) * stride

    def _windowed_sort_rows(
        self, prev_keys: np.ndarray, prev_perm: np.ndarray, d: int
    ) -> np.ndarray:
        """Sort ``d``-displaced rows by two offset passes of width-``2d`` blocks.

        Pass one sorts disjoint width-``2d`` blocks along yesterday's
        order; pass two repeats shifted by ``d``, so the two passes'
        blocks overlap by ``d`` — after which every element displaced by
        at most ``d`` has reached its sorted position (an element can
        cross at most one block seam per pass, and the seams of the two
        passes are ``d`` apart).  The float keys are unfolded in place
        into order-preserving int64 (sign-magnitude unfold: ``k1 < k2``
        as floats iff ``ikey1 < ikey2`` as signed ints) with the
        element's page id packed into the low bits, so pass one is a
        plain SIMD ``np.sort``, pass two a stable sort whose timsort
        merge gallops through each block's two already-sorted halves, no
        index gathers anywhere — masking the low bits *is* the
        permutation.  The packing truncates the key's lowest
        ``bit_length(n)`` mantissa bits; any mis-order that truncation
        (or a violated bound) lets through is caught by the caller's
        exact sorted-key verification.  Tail blocks are padded with
        int64-max sentinels, which sort to the very end, past every real
        element (page ids never fill the truncated field).
        """
        L, n = prev_keys.shape
        w = 2 * d
        pos_bits = int(n).bit_length()
        # Scratch reuse: a fresh ~(L, n) buffer every call would fault in
        # new pages each day (the dominant cost at the bench shape).
        scratch = getattr(_WINDOWED_SCRATCH, "slot", None)
        if scratch is None or scratch.shape[0] < L or scratch.shape[1] < n + w:
            scratch = np.empty((L, n + w), dtype=np.int64)
            _WINDOWED_SCRATCH.slot = scratch
        packed = scratch[:L, : n + w]
        packed[:, n:] = np.iinfo(np.int64).max
        fbits = np.ascontiguousarray(prev_keys).view(np.int64)
        pk = packed[:, :n]
        # ikey = fbits ^ ((fbits >> 63) & int64_max), built with in-place
        # passes over the scratch (no fresh (L, n) temporaries to fault).
        np.right_shift(fbits, 63, out=pk)
        pk &= np.int64(np.iinfo(np.int64).max)
        pk ^= fbits
        pk &= np.int64(~((1 << pos_bits) - 1))
        pk |= prev_perm
        row_stride, item_stride = packed.strides
        for offset, kind in ((0, "quicksort"), (d, "stable")):
            # In-place block view: a plain reshape of the offset slice
            # would copy (the rows are strided), and sorting the copy
            # silently discards the pass.
            blocks = np.lib.stride_tricks.as_strided(
                packed[:, offset:],
                shape=(L, (n - offset + w - 1) // w, w),
                strides=(row_stride, w * item_stride, item_stride),
            )
            blocks.sort(axis=2, kind=kind)
        perm = pk & ((1 << pos_bits) - 1)
        return perm.astype(prev_perm.dtype, copy=False)

    def _reinsert_moved(
        self, keys: np.ndarray, prev: np.ndarray, breaks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Targeted re-insertion of moved pages, batched over ``L`` rows.

        The moved set is the two pages on each side of every run boundary:
        a page whose score crossed its neighbours produces a boundary on
        each side, so the window covers it (plus a few innocent
        neighbours, and re-inserting an innocent page is harmless — it
        merges straight back to its slot).  The remaining pages are the
        *spine*; extraction, spine check and merge scatters all run as
        flat row-major array passes over every row at once, with only the
        tiny per-row moved sort + binary search in a Python loop.

        Returns ``(merged, healed)``: rows whose spine was *not* left
        sorted by the extraction (``healed[i] == False`` — e.g. an entire
        block of pages displaced together) carry garbage in ``merged`` and
        must be re-sorted by the caller instead.
        """
        L, n = keys.shape
        moved_mask = np.zeros((L, n), dtype=bool)
        moved_mask[:, :-1] = breaks
        moved_mask[:, 1:] |= breaks
        if n > 2:
            moved_mask[:, :-2] |= breaks[:, 1:]
            moved_mask[:, 2:] |= breaks[:, :-1]
        keep_mask = ~moved_mask
        keep_keys = keys[keep_mask]  # flat, row-major: per-row segments
        keep_idx = prev[keep_mask]
        flat_moved = np.flatnonzero(moved_mask.ravel())
        moved_keys = keys.ravel()[flat_moved]
        moved_idx = prev.ravel()[flat_moved]
        row_of = flat_moved // n
        d_counts = np.bincount(row_of, minlength=L)
        moved_offsets = np.zeros(L + 1, dtype=np.int64)
        np.cumsum(d_counts, out=moved_offsets[1:])
        keep_offsets = np.zeros(L + 1, dtype=np.int64)
        np.cumsum(n - d_counts, out=keep_offsets[1:])
        # Spine check: nondecreasing inside every row segment.  Offenders
        # are rare, so locate the descents and map them to rows.
        falls = np.flatnonzero(keep_keys[1:] < keep_keys[:-1]) + 1
        falls = falls[~np.isin(falls, keep_offsets[1:-1])]  # row seams
        healed = np.ones(L, dtype=bool)
        if falls.size:
            healed[np.searchsorted(keep_offsets[1:], falls, side="right")] = False
        # Sort every row's moved keys in one padded (L, d) argsort: pads
        # are the key dtype's maximum, so they stay in the trailing
        # columns (the keys are int64-unfolded floats; see
        # :meth:`_rank_adaptive`).
        d_max = int(d_counts.max())
        within = np.arange(flat_moved.size, dtype=np.int64) - moved_offsets[row_of]
        if np.issubdtype(keys.dtype, np.integer):
            pad_value = np.iinfo(keys.dtype).max
        else:
            pad_value = np.inf
        keys_matrix = np.full((L, d_max), pad_value, dtype=keys.dtype)
        keys_matrix[row_of, within] = moved_keys
        idx_matrix = np.zeros((L, d_max), dtype=prev.dtype)
        idx_matrix[row_of, within] = moved_idx
        order = np.argsort(keys_matrix, axis=1)
        keys_matrix = np.take_along_axis(keys_matrix, order, axis=1)
        idx_matrix = np.take_along_axis(idx_matrix, order, axis=1)
        positions = np.zeros((L, d_max), dtype=np.int64)
        for row in range(L):  # np.searchsorted is one-dimensional
            if healed[row]:
                positions[row] = np.searchsorted(
                    keep_keys[keep_offsets[row]:keep_offsets[row + 1]],
                    keys_matrix[row],
                    side="right",
                )
        # The nondecreasing-positions slot algebra of merge_repair, one
        # flat scatter per matrix: slot = position + insertions before it.
        # Pad columns (and unhealed rows, whose positions stay zero) never
        # collide because only the leading d_counts[row] columns scatter.
        real = np.arange(d_max, dtype=np.int64)[None, :] < d_counts[:, None]
        slots = (positions + np.arange(d_max, dtype=np.int64)[None, :])[real]
        merged = np.empty((L, n), dtype=prev.dtype)
        spine_mask = np.ones((L, n), dtype=bool)
        spine_mask[row_of, slots] = False
        merged[row_of, slots] = idx_matrix[real]
        merged[spine_mask] = keep_idx
        return merged, healed

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
        from repro.core.batch_rank import _flat_take

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
        from repro.core.batch_rank import _flat_take

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
        from repro.core.batch_rank import _flat_take, batched_merge_counts

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
        """Row-blocked fluid day tail: the unfused chain, L1/L2-resident.

        The default chain's elementwise passes allocate and stream full
        ``(R, n)`` temporaries between every step; here the same passes run
        over :data:`DAY_TAIL_BLOCK_ROWS`-row blocks with two reused block
        buffers, so each intermediate stays cache-resident.  Every step is
        the *same ufunc on the same values* as the reference chain
        (``visit_allocate`` + ``awareness_gain_batch`` + clip), just on row
        slices, so the result is bit-identical per element.  Stochastic
        mode and short batches keep the plain chain (per-row generator
        draws already block naturally, and small ``R`` has nothing to
        gain).
        """
        rankings = np.asarray(rankings)
        R, n = rankings.shape
        if mode != "fluid" or R <= DAY_TAIL_BLOCK_ROWS or n == 0:
            return super().day_tail(
                rankings, shares_by_rank, rate, mode, rngs,
                aware_count, monitored_population,
                surfing_fraction=surfing_fraction,
                surf_shares=surf_shares,
                out_shares=out_shares,
            )
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
        m = monitored_population
        values = aware[touched]
        # awareness_gain (fluid): gained = (m - aware) * (1 - (1 - 1/m)**v),
        # elementwise — identical per entry to the per-lane call.
        gained = (m - values) * (1.0 - (1.0 - 1.0 / m) ** summed)
        updated = np.minimum(float(m), values + gained)
        aware[touched] = updated
        popularity[touched] = (updated / m) * quality[touched]
        dirty[touched] = True


#: Module-level singleton the registry hands out.
BACKEND = NumpyKernelBackend()

__all__ = [
    "NumpyKernelBackend",
    "BACKEND",
    "merge_repair",
    "ROUTE_STATS",
]
