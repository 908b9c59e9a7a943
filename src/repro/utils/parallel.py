"""Worker counts for independent work, and the thread pool for replicate blocks.

:class:`~repro.simulation.batch.BatchSimulator` splits its replicate rows
into contiguous blocks and steps them on threads (:func:`run_blocks`);
``run_sweep`` splits its variants across a ``ProcessPoolExecutor``.  Both
size the split with :func:`default_workers`, so every entry point agrees
on the rule:

* an explicit request is honoured (clamped to the task count);
* ``None`` auto-sizes from :func:`os.cpu_count` — capped by the
  ``REPRO_MAX_WORKERS`` environment variable when set, because container
  CPU quotas make ``os.cpu_count()`` lie (it reports the host's cores, not
  the cgroup's share, so an unquota-aware pool oversubscribes a throttled
  container) — but only engages extra workers when every worker would
  receive at least ``min_tasks_per_worker`` tasks — each block pays a fixed
  per-call cost, and splitting four replicates four ways is slower than not
  splitting at all;
* the answer is never below one, so callers can compare ``workers <= 1``
  to pick the single-block path.

Results never depend on the worker count: each task keeps its own random
stream wherever it executes, so the split is a pure throughput decision.

Threads are enough for replicate blocks because numpy releases the GIL in
every heavy call of a simulated day (sorts, gathers, shuffles, random
draws, ``pow``), and they keep every counter and timing span in the one
process.  The block pool is per process: a forked child drops the
inherited pool, whose threads did not survive the fork, and builds its own
on first use.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

#: Auto-sharding engages only when each worker would get at least this many
#: independent tasks (replicates or sweep variants).
MIN_TASKS_PER_WORKER = 8

#: Environment variable capping the auto-sized worker count (CPU quotas).
MAX_WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"


def _max_workers_override() -> Optional[int]:
    """Parse ``REPRO_MAX_WORKERS``; invalid or non-positive values are ignored."""
    raw = os.environ.get(MAX_WORKERS_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def default_workers(
    tasks: int,
    requested: Optional[int] = None,
    min_tasks_per_worker: int = MIN_TASKS_PER_WORKER,
) -> int:
    """Resolve the number of workers for ``tasks`` independent tasks.

    Args:
        tasks: number of independent work units to split.
        requested: an explicit worker count, or ``None`` to auto-size from
            ``os.cpu_count()`` (capped by ``REPRO_MAX_WORKERS`` when set —
            an explicit request is a deliberate caller choice and is *not*
            capped).
        min_tasks_per_worker: auto-sizing floor — with fewer tasks per
            worker than this, the per-block overhead outweighs the
            parallelism and one worker wins.

    Returns:
        A worker count in ``[1, tasks]`` (always 1 for empty task lists).
    """
    if min_tasks_per_worker < 1:
        raise ValueError(
            "min_tasks_per_worker must be >= 1, got %d" % min_tasks_per_worker
        )
    if tasks <= 1:
        return 1
    if requested is not None:
        return max(1, min(int(requested), tasks))
    cores = os.cpu_count() or 1
    override = _max_workers_override()
    if override is not None:
        cores = min(cores, override)
    return max(1, min(cores, tasks // min_tasks_per_worker))


_pool: Optional[ThreadPoolExecutor] = None
_pool_threads = 0
_pool_lock = threading.Lock()


def _drop_pool_after_fork() -> None:
    global _pool, _pool_threads, _pool_lock
    _pool, _pool_threads, _pool_lock = None, 0, threading.Lock()


# Where fork does not exist there is no inherited pool to drop.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool_after_fork)


def _block_pool(threads: int) -> ThreadPoolExecutor:
    """The process's block pool, replaced by a larger one when it is too small."""
    global _pool, _pool_threads
    with _pool_lock:
        if _pool is None or _pool_threads < threads:
            # A replaced pool's idle threads exit once no caller holds it.
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="repro-block")
            _pool_threads = threads
        return _pool


def run_blocks(tasks: Sequence[Callable[[], T]]) -> List[T]:
    """Run ``tasks`` concurrently; return their results in task order.

    ``tasks[0]`` runs on the calling thread and the others on the block
    pool.  Every task has finished when this returns, also when one of
    them raised; the first exception in task order propagates.
    """
    if len(tasks) <= 1:
        return [task() for task in tasks]
    pool = _block_pool(len(tasks) - 1)
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        first = tasks[0]()
    finally:
        wait(futures)
    return [first, *(future.result() for future in futures)]


__all__ = [
    "default_workers",
    "run_blocks",
    "MIN_TASKS_PER_WORKER",
    "MAX_WORKERS_ENV_VAR",
]
