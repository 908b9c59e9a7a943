"""Optional numba backend: the batch day's elementwise passes, fused.

Importing this module requires the optional ``numba`` package; the
registry (:func:`repro.core.kernels.get_backend`) import-guards it and
degrades to the numpy reference with a single warning when it is missing,
so numba is never a hard dependency.

Fusion strategy (the ROADMAP's "JIT day kernel"): the ~30 elementwise
numpy passes of one ``(R, n)`` batch day collapse into a handful of
``@njit(parallel=True)`` loop nests —

* the post-ranking **day tail** (attention-share scatter, surfing blend,
  monitored-visit allocation, awareness gain, clip) runs as two fused
  nests around one numpy ``pow`` ufunc call instead of ~12 array passes;
* the **tie-run repair** of the batched ranking drops the Python
  per-row/per-run loop (in steady state every replicate carries one large
  zero-popularity tie group, so this loop runs every day);
* the **promotion merge** replaces the stable ``(R, n)`` argsort partition
  with a single linear pass per row and the eight-pass clipped-cumsum
  bookkeeping with one sequential scan per row;
* the sweep's **grouped lane repair** and **feedback flush** run their
  gather/merge/scatter per lane (or per touched page) inside one nest.

The parity contract is inherited, not re-proven: this class subclasses
:class:`~repro.core.kernels.numpy_backend.NumpyKernelBackend` and only
overrides deterministic array math.  Every random draw — tie keys, pool
shuffles, merge coins, stochastic multinomials/binomials — still executes
in the shared numpy method bodies, in the same order, from the same
generators; the awareness ``pow`` pass likewise stays on the numpy ufunc,
because numpy's SIMD float64 ``pow`` and libm's ``pow`` (what ``**``
lowers to under numba) differ in the last ulp; and the remaining fused
float expressions replicate the reference operation trees term for term
(scalar ``1 - 1/m`` hoisted exactly as the ufunc expression hoists it),
so results are bit-identical to the numpy backend.  Stochastic-mode tails
and any input whose dtype/layout the JIT kernels do not cover delegate to
``super()`` outright.  ``fastmath`` stays **off** everywhere: reordering
float arithmetic would break bit parity for a few percent of throughput.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

try:
    from numba import njit, prange
except ImportError as error:  # pragma: no cover - exercised via the registry
    raise ImportError(
        "the numba kernel backend requires the optional 'numba' package "
        "(pip install -r requirements-numba.txt): %s" % error
    ) from error

from repro.core.kernels.api import KernelBackend
from repro.core.kernels.numpy_backend import NumpyKernelBackend


def _f64c(array: np.ndarray) -> bool:
    return array.dtype == np.float64 and array.flags.c_contiguous


@njit(cache=True, parallel=True)
def _repair_tie_runs_nb(perm, sorted_keys, keys, use_keys):  # pragma: no cover
    R, n = perm.shape
    for row in prange(R):
        j = 0
        while j < n - 1:
            if sorted_keys[row, j] == sorted_keys[row, j + 1]:
                b = j + 2
                while b < n and sorted_keys[row, b] == sorted_keys[row, j]:
                    b += 1
                size = b - j
                members = np.sort(perm[row, j:b])
                if use_keys:
                    gathered = np.empty(size, dtype=np.float64)
                    for t in range(size):
                        gathered[t] = keys[row, members[t]]
                    idx = np.argsort(gathered, kind="mergesort")
                    for t in range(size):
                        perm[row, j + t] = members[idx[t]]
                else:
                    for t in range(size):
                        perm[row, j + t] = members[t]
                j = b
            else:
                j += 1


#: Route codes written by :func:`_rank_adaptive_nb`, matching the numpy
#: router's four-way split (see ``NumpyKernelBackend._rank_adaptive``).
ROUTE_COPY = 0
ROUTE_RUN_MERGE = 1
ROUTE_FULL = 2
ROUTE_WINDOWED = 3


@njit(cache=True, parallel=True)
def _rank_adaptive_nb(negated, prev_perm, max_moved, max_shift, out, route, shifts):  # pragma: no cover
    # The adaptive rank_day as one fused nest per row: detect run
    # boundaries in yesterday's order under today's keys, extract the
    # break-adjacent moved set, verify the remaining spine stayed sorted,
    # and two-pointer-merge the sorted moved pages back in after their
    # equal keys (the side="right" convention of the numpy reference).
    # Rows that decline the run merge (too many boundaries, or a displaced
    # block the extraction could not heal) try the displacement-bounded
    # route instead: a bounded insertion pass along yesterday's order —
    # the fused equivalent of the numpy backend's windowed block sorts —
    # that aborts to the caller's batched argsort the moment any single
    # insertion must shift further than ``max_shift``.  Unlike the numpy
    # route the realized shift *is* the exact displacement, so no
    # post-sort verification is needed; ``shifts[row]`` reports it.
    R, n = negated.shape
    for row in prange(R):
        moved_mask = np.zeros(n, dtype=np.bool_)
        break_count = 0
        run_merge_ok = True
        prev_key = negated[row, prev_perm[row, 0]]
        for j in range(1, n):
            key = negated[row, prev_perm[row, j]]
            if key < prev_key:
                break_count += 1
                if 4 * break_count > max_moved:
                    run_merge_ok = False
                    break
                # Two pages on each side of the boundary, like the numpy
                # reference's moved window.
                if j >= 2:
                    moved_mask[j - 2] = True
                moved_mask[j - 1] = True
                moved_mask[j] = True
                if j + 1 < n:
                    moved_mask[j + 1] = True
            prev_key = key
        if break_count == 0:
            for j in range(n):
                out[row, j] = prev_perm[row, j]
            route[row] = ROUTE_COPY
            continue
        healed = False
        if run_merge_ok:
            d = 0
            for j in range(n):
                if moved_mask[j]:
                    d += 1
            keep_count = n - d
            keep_keys = np.empty(keep_count, dtype=np.float64)
            keep_idx = np.empty(keep_count, dtype=np.int64)
            moved_keys = np.empty(d, dtype=np.float64)
            moved_idx = np.empty(d, dtype=np.int64)
            keeps = 0
            moves = 0
            healed = True
            last = -np.inf
            for j in range(n):
                page = prev_perm[row, j]
                key = negated[row, page]
                if moved_mask[j]:
                    moved_keys[moves] = key
                    moved_idx[moves] = page
                    moves += 1
                else:
                    if key < last:
                        healed = False  # a displaced block, not point moves
                        break
                    last = key
                    keep_keys[keeps] = key
                    keep_idx[keeps] = page
                    keeps += 1
            if healed:
                order = np.argsort(moved_keys, kind="mergesort")
                keep_at = 0
                write = 0
                for t in range(d):
                    moved_key = moved_keys[order[t]]
                    while keep_at < keep_count and keep_keys[keep_at] <= moved_key:
                        out[row, write] = keep_idx[keep_at]
                        write += 1
                        keep_at += 1
                    out[row, write] = moved_idx[order[t]]
                    write += 1
                while keep_at < keep_count:
                    out[row, write] = keep_idx[keep_at]
                    write += 1
                    keep_at += 1
                route[row] = ROUTE_RUN_MERGE
                continue
        # Displacement-bounded insertion along yesterday's order: the
        # sorted prefix lives in (skeys, out[row]); each new page binary
        # walks back at most max_shift slots.  Near-sorted fluid rows
        # cost O(n * realized_shift); a bound violation aborts the row to
        # the batched argsort before wasting more than it already has.
        skeys = np.empty(n, dtype=np.float64)
        bounded = True
        max_seen = 0
        for j in range(n):
            page = prev_perm[row, j]
            key = negated[row, page]
            i = j
            while i > 0 and skeys[i - 1] > key:
                i -= 1
                if j - i > max_shift:
                    bounded = False
                    break
            if not bounded:
                break
            for t in range(j, i, -1):
                skeys[t] = skeys[t - 1]
                out[row, t] = out[row, t - 1]
            skeys[i] = key
            out[row, i] = page
            if j - i > max_seen:
                max_seen = j - i
        if bounded:
            route[row] = ROUTE_WINDOWED
            shifts[row] = max_seen
        else:
            route[row] = ROUTE_FULL


@njit(cache=True, parallel=True)
def _partition_by_mask_nb(perms, mask_by_rank, n_promoted, out):  # pragma: no cover
    R, n = perms.shape
    for row in prange(R):
        deterministic_at = 0
        promoted_at = n - n_promoted[row]
        for j in range(n):
            value = perms[row, j]
            if mask_by_rank[row, j]:
                out[row, promoted_at] = value
                promoted_at += 1
            else:
                out[row, deterministic_at] = value
                deterministic_at += 1


@njit(cache=True, parallel=True)
def _merge_by_draws_nb(values, draws, r, n_det, n_prom, out):  # pragma: no cover
    R, n = values.shape
    for row in prange(R):
        nd = n_det[row]
        pool = n_prom[row]
        c_prev = 0
        running = 0
        for j in range(n):
            if draws[row, j] < r:
                running += 1
            c = running
            lower = j + 1 - nd
            if c < lower:
                c = lower
            if c > pool:
                c = pool
            if c > c_prev:
                out[row, j] = values[row, nd + c - 1]
            else:
                out[row, j] = values[row, j - c]
            c_prev = c


@njit(cache=True, parallel=True)
def _scatter_blend_rate_nb(
    rankings, shares_by_rank, surf, use_surf, x, rate, out_shares, out_visits
):  # pragma: no cover
    R, n = rankings.shape
    for row in prange(R):
        for j in range(n):
            out_shares[row, rankings[row, j]] = shares_by_rank[j]
        if use_surf:
            for p in range(n):
                out_shares[row, p] = (
                    (1.0 - x) * out_shares[row, p] + x * surf[row, p]
                )
        for p in range(n):
            out_visits[row, p] = out_shares[row, p] * rate


@njit(cache=True, parallel=True)
def _apply_gain_nb(aware, m, p_new):  # pragma: no cover
    # p_new = (1 - 1/m) ** visits, precomputed by the numpy pow ufunc: numpy's
    # SIMD float64 pow and libm's pow (what `**` lowers to inside numba)
    # disagree in the last ulp, so the pow pass is parity-critical numpy work
    # exactly like the RNG draws.  Everything around it fuses.
    R, n = aware.shape
    for row in prange(R):
        for p in range(n):
            a = aware[row, p]
            gained = (m - a) * (1.0 - p_new[row, p])
            updated = a + gained
            if updated > m:
                updated = m
            aware[row, p] = updated


@njit(cache=True, parallel=True)
def _lane_repair_nb(orders, pop, dirty_flat, offsets, out):  # pragma: no cover
    L, n = orders.shape
    for lane in prange(L):
        lo = offsets[lane]
        hi = offsets[lane + 1]
        d = hi - lo
        mask = np.zeros(n, dtype=np.bool_)
        for t in range(lo, hi):
            mask[dirty_flat[t]] = True
        keep_count = n - d
        keep = np.empty(keep_count, dtype=orders.dtype)
        ki = 0
        for j in range(n):
            value = orders[lane, j]
            if not mask[value]:
                keep[ki] = value
                ki += 1
        neg_moved = np.empty(d, dtype=np.float64)
        for t in range(d):
            neg_moved[t] = -pop[lane, dirty_flat[lo + t]]
        idx = np.argsort(neg_moved, kind="mergesort")
        neg_keep = np.empty(keep_count, dtype=np.float64)
        for t in range(keep_count):
            neg_keep[t] = -pop[lane, keep[t]]
        # Streaming equivalent of the reference's slots scatter: insertion
        # positions are nondecreasing (moved is sorted), so one forward
        # merge reproduces np.insert(keep, positions, moved) exactly.
        write_at = 0
        ki = 0
        for t in range(d):
            position = np.searchsorted(neg_keep, neg_moved[idx[t]], side="right")
            while ki < position:
                out[lane, write_at] = keep[ki]
                ki += 1
                write_at += 1
            out[lane, write_at] = dirty_flat[lo + idx[t]]
            write_at += 1
        while ki < keep_count:
            out[lane, write_at] = keep[ki]
            ki += 1
            write_at += 1


@njit(cache=True, parallel=True)
def _feedback_flush_nb(
    aware, popularity, quality, dirty, touched, p_new, m
):  # pragma: no cover
    # p_new precomputed by the numpy pow ufunc (see _apply_gain_nb).
    for t in prange(touched.size):
        i = touched[t]
        a = aware[i]
        gained = (m - a) * (1.0 - p_new[t])
        updated = a + gained
        if updated > m:
            updated = m
        aware[i] = updated
        popularity[i] = (updated / m) * quality[i]
        dirty[i] = True


class NumbaKernelBackend(NumpyKernelBackend):
    """JIT-fused kernels; bit-identical to :class:`NumpyKernelBackend`."""

    name = "numba"

    # The parallel=True nests already spread rows over numba's own thread
    # pool, and its workqueue threading layer aborts when two Python
    # threads launch parallel kernels at once: the batch engine runs one
    # replicate block on this backend.
    thread_safe = False

    # ------------------------------------------------- rank_day (repair)

    def _repair_tie_runs(self, perm, sorted_keys, tie_breaker, tie_keys, ages):
        if tie_breaker == "random":
            keys, use_keys = tie_keys, True
        elif tie_breaker == "age":
            # argsort(-ages) ascending-stable == the reference's descending
            # age order; negating up front lets one kernel serve both rules.
            keys, use_keys = np.negative(np.asarray(ages, dtype=np.float64)), True
        else:
            keys, use_keys = np.zeros((0, 0), dtype=np.float64), False
        _repair_tie_runs_nb(perm, sorted_keys, keys, use_keys)

    # ------------------------------------------------- rank_day (adaptive)

    def _rank_adaptive(self, negated, prev_perm):
        # One fused nest per row (run detection, moved-set extraction,
        # spine check, two-pointer re-insertion merge, displacement-
        # bounded insertion) instead of the reference's batched passes;
        # rows the kernel routes to ``full`` fall back to the same
        # batched argsort.  The tie repair normalizes any within-tie
        # differences, so the result remains bit-identical.  The bounded
        # insertion route is exact by construction (the bound is checked
        # on every shift, not estimated), so no verify rows are returned.
        from repro.core.kernels.api import ROUTE_STATS
        from repro.core.kernels.numpy_backend import ADAPTIVE_MAX_MOVED_FRACTION

        R, n = negated.shape
        out = np.empty((R, n), dtype=np.int64)
        route = np.zeros(R, dtype=np.int8)
        shifts = np.zeros(R, dtype=np.int64)
        _rank_adaptive_nb(
            np.ascontiguousarray(negated, dtype=np.float64),
            np.ascontiguousarray(prev_perm, dtype=np.int64),
            max(4, int(n * ADAPTIVE_MAX_MOVED_FRACTION)),
            n // 8,  # same cutoff as the numpy route's 2d > n/4
            out,
            route,
            shifts,
        )
        counts = np.bincount(route, minlength=4)
        windowed = route == ROUTE_WINDOWED
        ROUTE_STATS.record(
            copy=int(counts[ROUTE_COPY]),
            run_merge=int(counts[ROUTE_RUN_MERGE]),
            windowed=int(counts[ROUTE_WINDOWED]),
            full=int(counts[ROUTE_FULL]),
            displacement_sum=int(shifts[windowed].sum()),
            displacement_max=int(shifts[windowed].max(initial=0)),
        )
        if counts[ROUTE_FULL]:
            rows = np.flatnonzero(route == ROUTE_FULL)
            out[rows] = np.argsort(negated[rows], axis=1)
        return out, None

    # ---------------------------------------------------- promotion_merge

    def _partition_by_mask(self, perms, mask_by_rank, n_promoted):
        out = np.empty(perms.shape, dtype=perms.dtype)
        _partition_by_mask_nb(perms, mask_by_rank, n_promoted, out)
        return out

    def _merge_by_draws(self, values, draws, r, n_deterministic, n_promoted):
        out = np.empty(values.shape, dtype=values.dtype)
        _merge_by_draws_nb(
            values, draws, float(r), n_deterministic, n_promoted, out
        )
        return out

    # ----------------------------------------------------------- day tail

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
        if mode != "fluid":
            return super().visit_allocate(
                rankings, shares_by_rank, rate, mode, rngs,
                surfing_fraction=surfing_fraction,
                surf_shares=surf_shares,
                out_shares=out_shares,
            )
        rankings = np.ascontiguousarray(rankings, dtype=np.int64)
        R, n = rankings.shape
        if out_shares is None or not _f64c(out_shares):
            out_shares = np.empty((R, n), dtype=np.float64)
        use_surf = bool(surfing_fraction)
        if use_surf and surf_shares is None:
            raise ValueError("surfing blend requires the surf_shares matrix")
        surf = (
            np.ascontiguousarray(surf_shares, dtype=np.float64)
            if use_surf
            else np.zeros((0, 0), dtype=np.float64)
        )
        visits = np.empty((R, n), dtype=np.float64)
        _scatter_blend_rate_nb(
            rankings,
            np.ascontiguousarray(shares_by_rank, dtype=np.float64),
            surf,
            use_surf,
            float(surfing_fraction),
            float(rate),
            out_shares,
            visits,
        )
        return out_shares, visits

    def awareness_update(
        self,
        aware_count: np.ndarray,
        monitored_population: int,
        monitored_visits: np.ndarray,
        mode: str,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        if mode != "fluid" or not _f64c(aware_count):
            return super().awareness_update(
                aware_count, monitored_population, monitored_visits, mode, rngs
            )
        # Same expression (and ufunc) as awareness_gain_batch: scalar base,
        # numpy pow — see _apply_gain_nb for why this pass stays in numpy.
        p_new = (1.0 - 1.0 / monitored_population) ** np.ascontiguousarray(
            monitored_visits, dtype=np.float64
        )
        _apply_gain_nb(aware_count, float(monitored_population), p_new)
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
        # Bypass the numpy backend's row-blocked tail: composing the fused
        # JIT visit_allocate and awareness_update above — one loop nest
        # each around the numpy pow pass — is already the maximum fusion
        # the parity contract allows (see _apply_gain_nb), and the blocked
        # numpy passes would replace those nests, not feed them.
        return KernelBackend.day_tail(
            self, rankings, shares_by_rank, rate, mode, rngs,
            aware_count, monitored_population,
            surfing_fraction=surfing_fraction,
            surf_shares=surf_shares,
            out_shares=out_shares,
        )

    # -------------------------------------------------------- lane_repair

    def lane_repair(
        self,
        orders: Sequence[np.ndarray],
        popularity: Sequence[np.ndarray],
        dirty: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        L = len(orders)
        if L == 0:
            return []
        n = orders[0].size
        stacked = np.empty((L, n), dtype=np.int64)
        pop = np.empty((L, n), dtype=np.float64)
        offsets = np.zeros(L + 1, dtype=np.int64)
        for lane in range(L):
            stacked[lane] = orders[lane]
            pop[lane] = popularity[lane]
            offsets[lane + 1] = offsets[lane] + dirty[lane].size
        dirty_flat = np.empty(int(offsets[-1]), dtype=np.int64)
        for lane in range(L):
            dirty_flat[offsets[lane]:offsets[lane + 1]] = dirty[lane]
        out = np.empty((L, n), dtype=np.int64)
        _lane_repair_nb(stacked, pop, dirty_flat, offsets, out)
        return [out[lane] for lane in range(L)]

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
        if not (_f64c(aware) and _f64c(popularity) and _f64c(quality)):
            super().feedback_flush(
                aware, popularity, quality, dirty, touched, summed,
                monitored_population,
            )
            return
        # The pow pass stays on the numpy ufunc (see _apply_gain_nb); the
        # expression mirrors the reference backend's feedback_flush exactly.
        p_new = (1.0 - 1.0 / monitored_population) ** np.ascontiguousarray(
            summed, dtype=np.float64
        )
        _feedback_flush_nb(
            aware,
            popularity,
            quality,
            dirty,
            np.ascontiguousarray(touched, dtype=np.int64),
            p_new,
            float(monitored_population),
        )

    # ------------------------------------------------------------ warmup

    def warmup(self) -> None:
        """Compile every JIT kernel on tiny inputs (outside timed regions)."""
        rngs = [np.random.default_rng(seed) for seed in (0, 1)]
        scores = np.array([[0.5, 0.5, 0.1], [0.2, 0.3, 0.3]])
        ages = np.array([[1.0, 2.0, 2.0], [0.0, 1.0, 1.0]])
        for tie_breaker, age_arg in (("random", None), ("age", ages), ("index", None)):
            self.rank_day(scores, age_arg, tie_breaker, rngs)
        # prev_perm hint: row 1 has one break with one moved page, which
        # compiles the adaptive re-insertion kernel.
        self.rank_day(
            scores, None, "index", rngs,
            prev_perm=np.arange(3)[None, :].repeat(2, axis=0),
        )
        # Adjacent swaps on a descending base: one break per pair defeats
        # the run merge, while every insertion shifts one slot — exercises
        # the displacement-bounded route of the same kernel.
        swapped = np.arange(32, dtype=float)[::-1].copy()
        even = swapped[0::2].copy()
        swapped[0::2] = swapped[1::2]
        swapped[1::2] = even
        self.rank_day(
            np.tile(swapped, (2, 1)), None, "index", rngs,
            prev_perm=np.arange(32)[None, :].repeat(2, axis=0),
        )
        perms = np.argsort(-scores, axis=1)
        mask = np.array([[True, False, True], [False, True, False]])
        self.promotion_merge(perms, mask, 1, 0.5, rngs)
        shares_by_rank = np.array([0.6, 0.3, 0.1])
        aware = np.zeros((2, 3))
        surf = np.full((2, 3), 1.0 / 3.0)
        for frozen in (False, True):  # read-only share vectors type separately
            vector = shares_by_rank.copy()
            vector.setflags(write=not frozen)
            self.day_tail(perms, vector, 2.0, "fluid", rngs, aware, 10)
            self.day_tail(
                perms, vector, 2.0, "fluid", rngs, aware, 10,
                surfing_fraction=0.2, surf_shares=surf,
            )
            self.visit_allocate(perms, vector, 2.0, "fluid", rngs)
        self.awareness_update(aware, 10, np.ones((2, 3)), "fluid", rngs)
        order = np.array([0, 1, 2], dtype=np.int64)
        self.lane_repair(
            [order, order.copy()],
            [np.array([0.3, 0.2, 0.1]), np.array([0.1, 0.2, 0.3])],
            [np.array([1], dtype=np.int64), np.array([0], dtype=np.int64)],
        )
        flat = np.zeros(3)
        self.feedback_flush(
            flat, flat.copy(), np.ones(3), np.zeros(3, dtype=bool),
            np.array([1], dtype=np.int64), np.array([2.0]), 10,
        )


#: Module-level singleton the registry hands out.
BACKEND = NumbaKernelBackend()

__all__ = ["NumbaKernelBackend", "BACKEND"]
