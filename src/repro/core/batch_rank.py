"""Batched ranking kernels: R independent communities ranked in lockstep.

The batch simulation engine advances ``R`` replicate communities as ``(R, n)``
arrays.  The entry points here produce, for every row, *exactly* the
permutation the sequential code path produces — same random draws from the
same per-replicate generator, same result bit for bit — while doing the
heavy lifting (sorting, cumulative merge bookkeeping, gathers) across all
rows at once.

Since the kernel-dispatch refactor the implementations live behind the
:mod:`repro.core.kernels` backend API: :func:`batched_deterministic_order`
and :func:`batched_promotion_merge` are thin dispatchers onto the active
backend's ``rank_day`` / ``promotion_merge`` kernels (the numpy reference
backend carries the original code verbatim; the optional numba backend
fuses the same math into JIT loop nests).  The shared helpers that every
backend builds on — the flat row-wise gather and the clipped-cumsum merge
algebra — stay here.

Exactness argument for the deterministic order (implemented by the
backends): the sequential ``_deterministic_order`` is ``np.lexsort`` over
``(tie_key, -scores)`` (or the age/index variants), i.e. the unique
ordering by the composite key ``(-score, tie, index)``.  Any sorting
algorithm that realises that total order returns the same permutation, so
backends are free to use the fastest route: an unstable batched quicksort
on the primary key alone, followed by an exact repair of every run of
equal primary keys using the secondary/tertiary keys.  Ties are rare in
fluid mode (only freshly replaced pages share popularity zero) but can be
large in stochastic mode, where integer awareness counts collide; the
repair handles both.

The merge kernel mirrors ``repro.core.merge.merge_positions`` through a
closed form: with ``c[j]`` the running count of promotion-list picks after
``j + 1`` slots, draining both lists is equivalent to clipping ``c`` to
``[j + 1 - n_det, n_promoted]`` — the lower bound activates when the
deterministic list runs dry (every later slot takes from the promotion list)
and the upper bound when the promotion list does (every later slot takes from
the deterministic list).  ``tests/test_batch.py`` checks this equivalence
against ``merge_positions`` by brute force.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from repro.core.kernels import TIE_BREAKERS, get_backend


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


def batched_deterministic_order(
    scores: np.ndarray,
    ages: Optional[np.ndarray],
    tie_breaker: str,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Batched equivalent of ``rankers._deterministic_order`` row by row.

    Dispatches to the active kernel backend's ``rank_day``.

    Args:
        scores: ``(R, n)`` ranking scores (higher is better).
        ages: ``(R, n)`` page ages, required for ``tie_breaker="age"``.
        tie_breaker: one of ``TIE_BREAKERS``.
        rngs: one generator per row; consulted (one ``random(n)`` draw per
            row, same as the sequential path) only for ``"random"``.

    Returns:
        ``(R, n)`` permutations, each bit-identical to what
        ``_deterministic_order(scores[r], ages[r], tie_breaker, rngs[r])``
        would return.
    """
    return get_backend().rank_day(scores, ages, tie_breaker, rngs)


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


def batched_promotion_merge(
    perms: np.ndarray,
    promoted_mask: np.ndarray,
    k: int,
    r: float,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Batched equivalent of the sequential randomized merge, row by row.

    Dispatches to the active kernel backend's ``promotion_merge``.  For
    each row this reproduces ``randomized_merge(deterministic, promoted,
    k, r, rng)`` exactly: the promotion pool is the masked subsequence of
    the deterministic order, shuffled with the row's generator, and merged
    via the same coin flips.  Rows with an empty pool return their
    deterministic order untouched and consult their generator not at all,
    matching the sequential early return.

    Args:
        perms: ``(R, n)`` deterministic orders (modified only by copy).
        promoted_mask: ``(R, n)`` boolean pool membership per page index.
        k: protected prefix length (ranks better than ``k`` never move).
        r: merge coin bias.
        rngs: one generator per row.
    """
    return get_backend().promotion_merge(perms, promoted_mask, k, r, rngs)


__all__ = [
    "batched_deterministic_order",
    "batched_promotion_merge",
    "batched_merge_counts",
    "TIE_BREAKERS",
]
