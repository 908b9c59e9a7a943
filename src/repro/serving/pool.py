"""Multi-tenant process-per-shard serving pool with real concurrent writers.

One :class:`ServingPool` hosts many tenant communities behind a single
front door.  The parent process allocates each tenant shard's popularity
arrays in ``multiprocessing.shared_memory``
(:class:`~repro.serving.state.SharedPopularityState`: a version word,
commit counters, awareness, quality and a dirty mask per shard) and forks
worker processes that rebuild their shard engines *over* those shared
arrays through the one construction path
(:func:`repro.serving.config.build_router` with ``states=``), so a pool
worker's router cannot drift from the single-process initialization.

Because the version word is shared, any number of extra *client*
processes can attach to a shard and race feedback commits through the
same OCC contract the single-process router uses: read the version,
commit-if-unchanged under the shard lock, retry with jittered backoff,
dead-letter after ``max_attempts``.  Conflicts now arise *organically*
from genuine inter-process races — no :class:`~repro.robustness.faults.
FaultPlan` script involved — while remaining seed-stable per (tenant,
worker) and per client stream.

Robustness: worker inboxes are bounded queues, so a front door that
outruns a worker observes backpressure (counted, then blocking) instead
of unbounded queue growth; :meth:`ServingPool.ensure_alive` restarts
crashed workers, whose shard state survives in shared memory.

``serve-bench --tenants T --clients C --workers W`` drives
:func:`run_pool_benchmark`, which reports the aggregate-QPS scaling
ratio, the organic-conflict and zero-lost-visits invariants, and the
saturation/backpressure check that CI gates.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.robustness.occ import DeadLetter, DeadLetterQueue
from repro.serving.bench import sample_steady_awareness
from repro.serving.config import ServingConfig, build_router
from repro.serving.state import (
    SharedPopularityState,
    SharedShardHandle,
    shared_memory_available,
)
from repro.serving.tenancy import TenantSpec, plan_tenancy
from repro.serving.workload import StreamingWorkload, WorkloadConfig, run_stream
from repro.telemetry.recorder import NULL_RECORDER
from repro.utils.rng import as_rng, derive_seed, spawn_rngs


def _pool_context():
    """Fork context when available (cheap worker start, inherited locks)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# ---------------------------------------------------------------- workers


def _worker_main(
    worker_index: int,
    config: ServingConfig,
    specs: Sequence[TenantSpec],
    handles: Dict[int, List[SharedShardHandle]],
    locks: Dict[int, list],
    inbox,
    outbox,
) -> None:
    """Entry point of one pool worker process.

    Rebuilds this worker's tenant routers over the shared shard blocks,
    then serves ``("run", tenant, n_queries)`` work items from the inbox
    until a ``("stop",)`` message, finishing with a final flush plus
    dead-letter redelivery and one stats payload on the outbox.
    """
    routers = {}
    workloads = {}
    for spec in specs:
        states = [
            SharedPopularityState.attach(handle, lock)
            for handle, lock in zip(handles[spec.tenant], locks[spec.tenant], strict=True)
        ]
        routers[spec.tenant] = build_router(config, seed=spec.seed, states=states)
        workloads[spec.tenant] = StreamingWorkload(
            WorkloadConfig(feedback_rate=config.feedback_rate),
            seed=derive_seed(spec.seed, "pool-stream"),
        )
    queries_per_tenant = {spec.tenant: 0.0 for spec in specs}
    busy_seconds = 0.0
    feedback_events = 0.0
    committed = 0.0
    while True:
        message = inbox.get()
        if message[0] == "stop":
            break
        _, tenant, n_queries = message
        stats = run_stream(routers[tenant], int(n_queries), workload=workloads[tenant])
        queries_per_tenant[tenant] += float(stats.queries)
        busy_seconds += stats.elapsed_seconds
        feedback_events += float(stats.feedback_events)
        committed += stats.extra.get("flush_committed", 0.0)
    # Drain: buffered feedback, then parked batches.  Redelivery converges
    # because every conflict means another writer's commit landed — once
    # the racing writers finish, the next attempt sees a stable version.
    leftover_events = 0.0
    for router in routers.values():
        report = router.flush_feedback()
        rounds = 0
        while len(router.robustness.dead_letters) and rounds < 64:
            report.merge(router.redeliver_dead_letters())
            rounds += 1
        committed += float(report.committed)
        leftover_events += float(
            sum(letter.events for letter in router.robustness.dead_letters.letters)
        )
    payload = {
        "worker": float(worker_index),
        "queries": float(sum(queries_per_tenant.values())),
        "busy_seconds": busy_seconds,
        "feedback_events": feedback_events,
        "committed_events": committed,
        "dead_letter_events": leftover_events,
        "occ_conflicts": float(
            sum(r.robustness.occ_conflicts for r in routers.values())
        ),
        "occ_retries": float(sum(r.robustness.occ_retries for r in routers.values())),
    }
    for tenant, count in queries_per_tenant.items():
        payload["queries_tenant_%d" % tenant] = count
    outbox.put(("stats", worker_index, payload))


# ---------------------------------------------------------------- clients


def _client_main(
    client_index: int,
    config: ServingConfig,
    targets: Sequence[Tuple[SharedShardHandle, object]],
    barrier,
    sync_rounds: int,
    rounds: int,
    batch: int,
    outbox,
) -> None:
    """Entry point of one concurrent OCC writer process.

    Attaches to the target shards and commits ``rounds`` feedback batches
    through the exact commit loop contract the router uses: read the
    version *outside* the lock, commit-if-unchanged, retry with the
    config's jittered backoff, dead-letter after ``max_attempts``, then
    redeliver parked batches until the queue drains.

    During the first ``sync_rounds`` rounds the clients rendezvous at
    ``barrier`` twice: once before reading the version and once *between*
    the version read and the commit.  The second rendezvous makes the
    race deterministic on any core count — every synchronized client
    provably holds the same expected version when the commits start, so
    with two or more clients each such round produces at least one
    organic conflict (only one commit per shard can win the version).
    """
    states = [SharedPopularityState.attach(handle, lock) for handle, lock in targets]
    policy = config.retry_policy()
    draw_rng = as_rng(derive_seed(config.seed, "pool-client-%d" % client_index))
    retry_rng = as_rng(derive_seed(config.seed, "pool-client-retry-%d" % client_index))
    dead = DeadLetterQueue()
    sent = 0
    committed = 0
    conflicts = 0
    retries = 0

    def rendezvous() -> None:
        try:
            barrier.wait(timeout=30.0)
        except threading.BrokenBarrierError:
            pass

    def commit_batch(
        shard: int,
        indices: np.ndarray,
        visits: np.ndarray,
        expected: Optional[int] = None,
    ) -> bool:
        nonlocal committed, conflicts, retries
        state = states[shard]
        attempts = 0
        while True:
            if expected is None:
                expected = state.version
            if state.commit_visits_at(indices, visits, expected, rng=retry_rng):
                committed += int(indices.size)
                return True
            expected = None
            attempts += 1
            conflicts += 1
            if attempts >= policy.max_attempts:
                return False
            retries += 1
            backoff = policy.backoff_seconds(attempts, retry_rng)
            if backoff > 0.0:
                time.sleep(backoff)

    for round_index in range(rounds):
        synchronized = barrier is not None and round_index < sync_rounds
        shard = round_index % len(states)
        indices = draw_rng.integers(0, states[shard].n, size=batch)
        visits = np.ones(batch, dtype=float)
        sent += batch
        expected = None
        if synchronized:
            rendezvous()
            expected = states[shard].version
            rendezvous()
        if not commit_batch(shard, indices, visits, expected=expected):
            dead.park(
                DeadLetter(
                    shard=shard,
                    indices=indices,
                    visits=visits,
                    attempts=policy.max_attempts,
                )
            )
    redelivery_rounds = 0
    while len(dead) and redelivery_rounds < 1000:
        redelivery_rounds += 1
        for letter in dead.drain():
            if not commit_batch(letter.shard, letter.indices, letter.visits):
                dead.park(letter)
    leftover = sum(letter.events for letter in dead.letters)
    for state in states:
        state.close()
    outbox.put(
        (
            "client",
            client_index,
            {
                "client": float(client_index),
                "sent_events": float(sent),
                "committed_events": float(committed),
                "conflicts": float(conflicts),
                "retries": float(retries),
                "dead_letter_events": float(leftover),
                "redelivery_rounds": float(redelivery_rounds),
            },
        )
    )


# ------------------------------------------------------------------- pool


class ServingPool:
    """Process-per-shard serving pool over shared-memory popularity state.

    The parent owns the shared blocks and the front door; each worker
    process owns the serving engines of the tenants assigned to it by
    :func:`~repro.serving.tenancy.plan_tenancy`.  Work arrives as
    ``submit(tenant, n_queries)`` batches routed to the owning worker's
    bounded inbox.
    """

    def __init__(
        self,
        config: ServingConfig,
        telemetry=None,
        warm: bool = False,
    ) -> None:
        if config.workers < 1:
            raise ValueError(
                "a serving pool needs workers >= 1, got %d "
                "(use build_router for the in-process path)" % config.workers
            )
        if not shared_memory_available():
            raise RuntimeError(
                "multiprocessing.shared_memory is unavailable on this platform"
            )
        self.config = config
        self.telemetry = telemetry if telemetry is not None else NULL_RECORDER
        self.specs = plan_tenancy(
            config.tenants, config.workers, config.seed, config.n_pages
        )
        self._context = _pool_context()
        self.backpressure_events = 0
        self.worker_restarts = 0
        self._released = False

        # One shared block + lock per (tenant, shard), partitioned exactly
        # the way build_router partitions a community, with the quality
        # draw consumed from the same per-shard child stream — workers
        # re-derive identical generators from the tenant seed.
        self.states: Dict[int, List[SharedPopularityState]] = {}
        self.locks: Dict[int, list] = {}
        self.handles: Dict[int, List[SharedShardHandle]] = {}
        community = config.community()
        base, remainder = divmod(community.n_pages, config.n_shards)
        for spec in self.specs:
            rngs = spawn_rngs(spec.seed, config.n_shards)
            tenant_states = []
            tenant_locks = []
            for shard, rng in enumerate(rngs):
                shard_community = community.scaled(
                    base + (1 if shard < remainder else 0)
                )
                lock = self._context.Lock()
                tenant_states.append(
                    SharedPopularityState.create(
                        shard_community, rng, config.mode, lock=lock
                    )
                )
                tenant_locks.append(lock)
            self.states[spec.tenant] = tenant_states
            self.locks[spec.tenant] = tenant_locks
            self.handles[spec.tenant] = [state.handle for state in tenant_states]
        if warm:
            self.warm()

        self._inboxes = [
            self._context.Queue(maxsize=config.inbox_capacity)
            for _ in range(config.workers)
        ]
        self._outbox = self._context.Queue()
        self._client_outbox = self._context.Queue()
        self._workers = [
            self._spawn_worker(index) for index in range(config.workers)
        ]

    # ------------------------------------------------------------ workers

    def _spawn_worker(self, index: int):
        specs = [spec for spec in self.specs if spec.worker == index]
        process = self._context.Process(
            target=_worker_main,
            args=(
                index,
                self.config,
                specs,
                self.handles,
                self.locks,
                self._inboxes[index],
                self._outbox,
            ),
            daemon=True,
        )
        process.start()
        return process

    def ensure_alive(self) -> List[int]:
        """Restart any dead worker; its shard state survived in shared memory.

        Returns the restarted worker indices.  A restarted worker rebuilds
        its engines over the live shared arrays (popularity is preserved;
        process-local lifecycle clocks restart) and consumes a *fresh*
        inbox: a process killed while blocked in ``Queue.get`` dies holding
        the queue's internal reader lock, which would deadlock any
        successor on the old queue.  Batches in flight at crash time are
        therefore at-most-once; their feedback, if already committed, is
        durable in the shared arrays.
        """
        restarted = []
        for index, process in enumerate(self._workers):
            if not process.is_alive():
                self._inboxes[index] = self._context.Queue(
                    maxsize=self.config.inbox_capacity
                )
                self._workers[index] = self._spawn_worker(index)
                self.worker_restarts += 1
                restarted.append(index)
        return restarted

    # --------------------------------------------------------- front door

    def worker_for(self, tenant: int) -> int:
        """Worker index hosting ``tenant``."""
        return self.specs[tenant].worker

    def submit(self, tenant: int, n_queries: int) -> None:
        """Enqueue one batch of ``tenant`` queries on its worker's inbox.

        Inboxes are bounded: when the owning worker has fallen behind the
        submission is counted as a backpressure event and then blocks
        until the worker drains a slot — the queue cannot grow without
        bound.
        """
        message = ("run", int(tenant), int(n_queries))
        inbox = self._inboxes[self.worker_for(tenant)]
        try:
            inbox.put_nowait(message)
        except queue_module.Full:
            self.backpressure_events += 1
            inbox.put(message)

    def warm(self) -> None:
        """Seed every tenant shard with a steady-state awareness profile.

        Per tenant this is :func:`~repro.serving.bench.
        seed_steady_state_awareness`'s recipe with the tenant's derived
        warm stream, applied before the workers fork.
        """
        for spec in self.specs:
            generator = as_rng(derive_seed(spec.seed, "serving-warm"))
            for state in self.states[spec.tenant]:
                state.set_awareness(
                    sample_steady_awareness(
                        state.n, state.pool.monitored_population, generator
                    )
                )

    # ------------------------------------------------------------ clients

    def start_clients(
        self,
        clients: int,
        rounds: int = 8,
        batch: int = 16,
        sync_rounds: int = 2,
        tenant: int = 0,
    ) -> list:
        """Launch ``clients`` concurrent OCC writer processes on ``tenant``.

        Returns the started processes; collect their reports with
        :meth:`join_clients`.  With two or more clients the first
        ``sync_rounds`` rounds rendezvous at a barrier so at least one
        organic conflict is guaranteed even on a single-core host.
        """
        if clients < 1:
            return []
        barrier = self._context.Barrier(clients) if clients > 1 else None
        targets = list(zip(self.handles[tenant], self.locks[tenant], strict=True))
        processes = []
        for index in range(clients):
            process = self._context.Process(
                target=_client_main,
                args=(
                    index,
                    self.config,
                    targets,
                    barrier,
                    sync_rounds,
                    rounds,
                    batch,
                    self._client_outbox,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)
        return processes

    def join_clients(self, processes, timeout: float = 120.0) -> List[Dict]:
        """Wait for client writers and return their report payloads."""
        payloads = []
        deadline = time.monotonic() + timeout
        while len(payloads) < len(processes) and time.monotonic() < deadline:
            try:
                kind, _, payload = self._client_outbox.get(timeout=1.0)
            except queue_module.Empty:
                continue
            if kind == "client":
                payloads.append(payload)
                if self.telemetry.enabled:
                    row = dict(payload)
                    row["kind"] = "pool_client"
                    self.telemetry.emit_row(row)
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        return payloads

    # ----------------------------------------------------------- shutdown

    def shutdown(self, timeout: float = 120.0) -> Dict[str, float]:
        """Stop the workers, gather their reports, release shared memory.

        Returns the aggregated pool statistics (per-worker and per-tenant
        query counts, OCC accounting from both the workers and the shared
        headers, backpressure and restart counters).
        """
        for inbox in self._inboxes:
            inbox.put(("stop",))
        payloads: Dict[int, Dict] = {}
        deadline = time.monotonic() + timeout
        while len(payloads) < len(self._workers) and time.monotonic() < deadline:
            try:
                kind, index, payload = self._outbox.get(timeout=1.0)
            except queue_module.Empty:
                continue
            if kind == "stats":
                payloads[index] = payload
        for process in self._workers:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
        stats = self._aggregate(payloads)
        self.release()
        return stats

    def shared_counters(self) -> Dict[str, float]:
        """Commit accounting summed over every tenant shard's header."""
        totals = {
            "shared_committed_events": 0.0,
            "shared_committed_batches": 0.0,
            "shared_conflicts": 0.0,
        }
        for states in self.states.values():
            for state in states:
                counters = state.counters()
                for key in totals:
                    totals[key] += counters[key]
        return totals

    def _aggregate(self, payloads: Dict[int, Dict]) -> Dict[str, float]:
        stats = {
            "tenants": float(self.config.tenants),
            "workers": float(self.config.workers),
            "queries": 0.0,
            "busy_seconds": 0.0,
            "feedback_events": 0.0,
            "worker_committed_events": 0.0,
            "worker_dead_letter_events": 0.0,
            "occ_conflicts": 0.0,
            "occ_retries": 0.0,
            "worker_reports": float(len(payloads)),
            "backpressure_events": float(self.backpressure_events),
            "worker_restarts": float(self.worker_restarts),
        }
        for payload in payloads.values():
            stats["queries"] += payload["queries"]
            stats["busy_seconds"] += payload["busy_seconds"]
            stats["feedback_events"] += payload["feedback_events"]
            stats["worker_committed_events"] += payload["committed_events"]
            stats["worker_dead_letter_events"] += payload["dead_letter_events"]
            stats["occ_conflicts"] += payload["occ_conflicts"]
            stats["occ_retries"] += payload["occ_retries"]
            for key, value in payload.items():
                if key.startswith("queries_tenant_"):
                    stats[key] = stats.get(key, 0.0) + value
            if self.telemetry.enabled:
                row = dict(payload)
                row["kind"] = "pool_worker"
                self.telemetry.emit_row(row)
        stats.update(self.shared_counters())
        return stats

    def release(self) -> None:
        """Close and unlink every shared block (idempotent)."""
        if self._released:
            return
        self._released = True
        for states in self.states.values():
            for state in states:
                state.close()
                state.unlink()


# -------------------------------------------------------------- benchmark


def run_pool_benchmark(
    n_pages: int = 2_000,
    n_shards: int = 2,
    tenants: int = 2,
    workers: int = 2,
    clients: int = 2,
    n_queries: int = 2_000,
    batches_per_tenant: int = 4,
    client_rounds: int = 6,
    client_batch: int = 16,
    seed: int = 0,
    mode: str = "fluid",
    cache_capacity: Optional[int] = 64,
    staleness_budget: int = 4,
    inbox_capacity: int = 8,
    max_attempts: int = 4,
    telemetry=None,
    config: Optional[ServingConfig] = None,
) -> Dict[str, float]:
    """Measure aggregate-QPS scaling and the pool's OCC invariants.

    Three phases over identical per-tenant workloads:

    1. *reference* — the same tenants behind a single worker;
    2. *pool* — ``workers`` worker processes plus ``clients`` concurrent
       OCC writer processes hammering tenant 0's shards;
    3. *saturation* — a burst of submissions against a deliberately tiny
       inbox, asserting backpressure engages (bounded queues block, they
       do not grow).

    The headline ``pool_scaling_ratio`` normalizes the pool-vs-reference
    speedup by ``min(workers, cpu_count)`` so the floor is
    machine-independent: perfect scaling is ~1.0 on any core count, and a
    single-core host (where the pool cannot beat one worker) still lands
    near 1.0 instead of failing the gate.  ``pool_zero_lost`` is 1.0 iff
    every feedback event sent by any writer is accounted for as committed
    or parked *and* the writers' commit counts equal the shared headers';
    ``pool_organic_conflict`` is 1.0 iff the shared headers saw a real
    racing commit rejected.
    """
    if config is None:
        config = ServingConfig(
            n_pages=n_pages,
            n_shards=n_shards,
            mode=mode,
            cache_capacity=cache_capacity,
            staleness_budget=staleness_budget,
            seed=seed,
            tenants=tenants,
            workers=workers,
            clients=clients,
            inbox_capacity=inbox_capacity,
            max_attempts=max_attempts,
        )
    per_batch = max(1, int(n_queries) // max(1, batches_per_tenant))

    def drive(pool: ServingPool) -> float:
        started = time.perf_counter()
        for _batch_index in range(batches_per_tenant):
            for tenant in range(pool.config.tenants):
                pool.submit(tenant, per_batch)
        return started

    # Phase 1: single-worker reference over the same tenants and batches.
    reference = ServingPool(config.replace(workers=1, clients=0), warm=True)
    started = drive(reference)
    reference_stats = reference.shutdown()
    reference_seconds = time.perf_counter() - started
    qps_single = reference_stats["queries"] / max(reference_seconds, 1e-9)

    # Phase 2: the full pool with concurrent client writers.
    pool = ServingPool(config, telemetry=telemetry, warm=True)
    client_processes = pool.start_clients(
        config.clients, rounds=client_rounds, batch=client_batch
    )
    started = drive(pool)
    client_payloads = pool.join_clients(client_processes)
    pool_stats = pool.shutdown()
    pool_seconds = time.perf_counter() - started
    qps_pool = pool_stats["queries"] / max(pool_seconds, 1e-9)

    # Phase 3: saturation — a burst against a tiny inbox must engage
    # backpressure rather than grow the queue.
    saturation = ServingPool(
        config.replace(workers=1, clients=0, inbox_capacity=1), warm=True
    )
    for _ in range(8):
        saturation.submit(0, per_batch)
    saturation_stats = saturation.shutdown()

    client_sent = sum(p["sent_events"] for p in client_payloads)
    client_committed = sum(p["committed_events"] for p in client_payloads)
    client_leftover = sum(p["dead_letter_events"] for p in client_payloads)
    client_conflicts = sum(p["conflicts"] for p in client_payloads)
    total_sent = pool_stats["feedback_events"] + client_sent
    total_committed = pool_stats["worker_committed_events"] + client_committed
    total_leftover = pool_stats["worker_dead_letter_events"] + client_leftover
    lost_events = total_sent - total_committed - total_leftover
    header_matches = (
        pool_stats["shared_committed_events"] == total_committed
    )
    organic_conflicts = pool_stats["shared_conflicts"]

    cores = os.cpu_count() or 1
    scaling = (qps_pool / max(qps_single, 1e-9)) / min(config.workers, cores)
    report = {
        "tenants": float(config.tenants),
        "workers": float(config.workers),
        "clients": float(config.clients),
        "n_pages": float(config.n_pages),
        "n_shards": float(config.n_shards),
        "queries": pool_stats["queries"],
        "queries_per_second": qps_pool,
        "qps_single_worker": qps_single,
        "pool_scaling_ratio": scaling,
        "pool_organic_conflict": 1.0 if organic_conflicts >= 1 else 0.0,
        "pool_zero_lost": 1.0 if (lost_events == 0 and header_matches) else 0.0,
        "pool_backpressure_engaged": (
            1.0 if saturation_stats["backpressure_events"] >= 1 else 0.0
        ),
        "lost_events": float(lost_events),
        "organic_conflicts": float(organic_conflicts),
        "client_sent_events": float(client_sent),
        "client_committed_events": float(client_committed),
        "client_conflicts": float(client_conflicts),
        "client_dead_letter_events": float(client_leftover),
        "worker_feedback_events": pool_stats["feedback_events"],
        "worker_committed_events": pool_stats["worker_committed_events"],
        "worker_dead_letter_events": pool_stats["worker_dead_letter_events"],
        "shared_committed_events": pool_stats["shared_committed_events"],
        "shared_conflicts": pool_stats["shared_conflicts"],
        "backpressure_events": saturation_stats["backpressure_events"],
        "worker_restarts": pool_stats["worker_restarts"],
    }
    for key, value in pool_stats.items():
        if key.startswith("queries_tenant_"):
            report[key] = value
    if telemetry is not None:
        row = dict(report)
        row["kind"] = "pool_summary"
        telemetry.emit_row(row)
        # Snapshot keys arrive already ``telemetry_``-prefixed.
        report.update(telemetry.snapshot())
    return report


__all__ = [
    "ServingPool",
    "run_pool_benchmark",
]
