"""Sharded query router: many communities, one serving front door.

Scaling past a single community means partitioning pages into shards, each
owned by one :class:`~repro.serving.engine.ServingEngine` with its own
popularity state, result cache and random stream.  The router:

* hashes every query id to a shard with a stable (process-independent)
  hash, so a query always lands on the same community.  Ids of exact type
  ``int`` or ``str`` are memoized per router (at most
  :data:`SHARD_MEMO_LIMIT` of them), so a repeated query costs one dict
  lookup instead of a CRC32 over its repr;
* serves the query from that shard's engine/cache, and counts it once the
  shard accepted it;
* *buffers* visit feedback per shard and applies it in batches — one
  O(batch) state update and one order repair per flush instead of one per
  event, which is what keeps the incremental path cheap under heavy
  feedback traffic.  A page index outside its shard is rejected before it
  is buffered;
* *commits* each flushed batch through the OCC write path: the commit
  carries the popularity-store version the writer read, a conflicting
  commit is rejected and retried with bounded jittered backoff, and a
  batch that exhausts its attempts is dead-lettered
  (:mod:`repro.robustness.occ`);
* optionally runs under a :class:`~repro.robustness.faults.FaultInjector`
  with per-shard :class:`~repro.robustness.supervisor.ShardSupervisor`\\ s:
  downed shards serve last-known-good pages within an escalating staleness
  budget (load-shedding beyond it), crashed shards are rebuilt from
  checkpoint + journal replay, and buffered feedback for an unavailable
  shard is held back rather than lost (backpressure).  Without
  ``enable_robustness`` the hot paths hold the no-op
  :data:`~repro.robustness.faults.NULL_INJECTOR` and pay one attribute
  load and a predictable branch per query.
"""

from __future__ import annotations

import time
import zlib
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.robustness.faults import (
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    LoadShedError,
)
from repro.robustness.occ import (
    DeadLetter,
    DeadLetterQueue,
    FlushReport,
    RetryPolicy,
)
from repro.serving.cache import CacheStats
from repro.serving.engine import ServingEngine
from repro.telemetry.recorder import NULL_RECORDER
from repro.utils.rng import RandomSource, as_rng


#: A router's routing memo is cleared once it holds this many query ids.
SHARD_MEMO_LIMIT = 1 << 16


def stable_shard_hash(query_id: Hashable) -> int:
    """Deterministic non-negative hash of a query id.

    Python's builtin ``hash`` is salted per process; CRC32 over the repr is
    stable across runs and machines, which keeps shard assignment (and with
    it every downstream random stream) reproducible.  Because it hashes the
    repr, ids that compare equal but print differently (``1``, ``True``,
    ``1.0``, ``np.int64(1)``) may hash differently.
    """
    return zlib.crc32(repr(query_id).encode("utf-8"))


class RouterRobustnessState:
    """All mutable OCC/robustness state of one router, created in one place.

    Every router — the single-process front door and each serving-pool
    worker's internal router alike — gets exactly this object from
    ``ShardedRouter.__init__``, so the write-path initialization cannot
    drift between construction sites.  The retry policy and dead-letter
    queue are live even without fault injection: any conflicting commit
    (scripted *or* a real concurrent writer racing on shared state) goes
    through the same retry/dead-letter path.
    """

    __slots__ = (
        "supervisors",
        "retry_policy",
        "dead_letters",
        "occ_conflicts",
        "occ_retries",
        "backoff_seconds",
        "retry_rng",
        "sleep",
        "fault_queries",
    )

    def __init__(self) -> None:
        self.supervisors = None
        self.retry_policy = RetryPolicy()
        self.dead_letters = DeadLetterQueue()
        self.occ_conflicts = 0
        self.occ_retries = 0
        self.backoff_seconds = 0.0
        self.retry_rng = as_rng(None)
        self.sleep = time.sleep
        self.fault_queries = 0

    def arm(self, retry=None, seed: RandomSource = None, sleep=None) -> None:
        """Apply the ``enable_robustness`` knobs (None keeps the default)."""
        if retry is not None:
            self.retry_policy = retry
        self.retry_rng = as_rng(seed)
        if sleep is not None:
            self.sleep = sleep
        self.fault_queries = 0

    def disarm(self) -> None:
        self.supervisors = None
        self.sleep = time.sleep


class ShardedRouter:
    """Routes a query stream over a fleet of community shards."""

    def __init__(self, engines: Sequence[ServingEngine]) -> None:
        if not engines:
            raise ValueError("a router needs at least one shard engine")
        self.engines: List[ServingEngine] = list(engines)
        # Shard sizes never change, and a crashed shard has no state to
        # read them from; feedback is validated against these.
        self._shard_sizes = [engine.state.n for engine in self.engines]
        self._shard_memo: Dict[Hashable, int] = {}
        self._pending_indices: List[List[int]] = [[] for _ in self.engines]
        self._pending_visits: List[List[float]] = [[] for _ in self.engines]
        self.queries_routed = 0
        self.queries_per_shard = [0] * len(self.engines)
        self.feedback_buffered = 0
        self.flushes = 0
        # ``telemetry`` and ``faults`` are the two per-query hot-path
        # references (one attribute load + predictable branch each); they
        # stay plain attributes.  Everything else the robustness layer
        # mutates lives in one RouterRobustnessState.
        self.telemetry = NULL_RECORDER
        self.faults = NULL_INJECTOR
        self.robustness = RouterRobustnessState()

    # ------------------------------------------------------------------ API

    @property
    def n_shards(self) -> int:
        """Number of community shards behind the router."""
        return len(self.engines)

    @property
    def n_pages(self) -> int:
        """Total pages across all shards."""
        return sum(self._shard_sizes)

    def shard_for(self, query_id: Hashable) -> int:
        """Shard index the query is routed to (stable across runs).

        Always ``stable_shard_hash(query_id) % n_shards``.  Ids of exact type
        ``int`` or ``str`` are memoized: equal values of those two types have
        equal reprs, so the memo returns what the hash would.  Every other
        type is hashed on each call, because equal values of it may route
        differently (``True`` and ``1.0`` equal ``1``).  The memo is cleared
        when it reaches :data:`SHARD_MEMO_LIMIT` ids.
        """
        kind = type(query_id)
        if kind is not int and kind is not str:
            return stable_shard_hash(query_id) % len(self.engines)
        memo = self._shard_memo
        shard = memo.get(query_id)
        if shard is None:
            if len(memo) >= SHARD_MEMO_LIMIT:
                memo.clear()
            shard = memo[query_id] = stable_shard_hash(query_id) % len(self.engines)
        return shard

    def attach_telemetry(self, recorder) -> None:
        """Point the router, every engine and every cache at ``recorder``.

        Pass :data:`~repro.telemetry.recorder.NULL_RECORDER` to detach.
        The recorder's shard counters must cover ``n_shards`` shards.
        """
        self.telemetry = recorder
        for engine in self.engines:
            engine.telemetry = recorder
            if engine.cache is not None:
                engine.cache.telemetry = recorder

    def enable_robustness(
        self,
        plan: Optional[FaultPlan] = None,
        *,
        retry: Optional[RetryPolicy] = None,
        degradation=None,
        seed: RandomSource = None,
        sleep=None,
    ) -> FaultInjector:
        """Arm the robustness layer: supervisors, OCC knobs, fault injection.

        Builds one :class:`~repro.robustness.supervisor.ShardSupervisor`
        per shard (checkpointing the current state as the recovery base),
        installs a :class:`~repro.robustness.faults.FaultInjector` for
        ``plan`` (an empty plan just turns supervision/journaling on), and
        seeds the retry-backoff jitter stream.  ``sleep`` overrides the
        real ``time.sleep`` used between retries — benches pass a no-op to
        measure scheduled backoff without actually waiting.
        """
        from repro.robustness.supervisor import DegradationPolicy, ShardSupervisor

        if degradation is None:
            degradation = DegradationPolicy()
        self.robustness.arm(retry=retry, seed=seed, sleep=sleep)
        self.robustness.supervisors = [
            ShardSupervisor(shard, engine, degradation)
            for shard, engine in enumerate(self.engines)
        ]
        injector = FaultInjector(plan if plan is not None else FaultPlan(), self)
        self.faults = injector
        for engine in self.engines:
            engine.faults = injector
        return injector

    def disable_robustness(self) -> None:
        """Disarm fault injection and supervision; hot paths go no-op again."""
        self.faults = NULL_INJECTOR
        for engine in self.engines:
            engine.faults = NULL_INJECTOR
        self.robustness.disarm()

    def serve(self, query_id: Hashable, k: int) -> np.ndarray:
        """Serve the top-``k`` result page for one query.

        Raises :class:`~repro.robustness.faults.LoadShedError` if fault
        injection has the query's shard down and the last-known-good page
        is staler than the escalating degradation budget allows.  A query
        that raises (shed, or ``k < 1``) is not counted as routed.
        """
        shard = self.shard_for(query_id)
        if self.faults.enabled:
            page = self._serve_supervised(shard, k)
        else:
            page = self.engines[shard].serve(k)
            # Recorded after the engine call so the cache outcome of this
            # very query is inside the window row a boundary tick emits.
            if self.telemetry.enabled:
                self.telemetry.record_query(shard)
        self.queries_routed += 1
        self.queries_per_shard[shard] += 1
        return page

    def _serve_supervised(self, shard: int, k: int) -> np.ndarray:
        """Fault-aware serve: fire due events, degrade/recover as needed."""
        faults = self.faults
        self.robustness.fault_queries += 1
        query_index = self.robustness.fault_queries
        faults.on_query(query_index)
        status = faults.poll(shard, query_index)
        supervisor = self.robustness.supervisors[shard]
        if status == "recover":
            self._recover_shard(shard)
            status = "up"
        if status == "down":
            pending = len(self._pending_indices[shard])
            try:
                page, staleness = supervisor.serve_degraded(k, pending)
            except LoadShedError:
                if self.telemetry.enabled:
                    self.telemetry.record_load_shed()
                raise
            if self.telemetry.enabled:
                self.telemetry.record_degraded_serve(staleness)
                self.telemetry.record_query(shard)
            return page
        page = self.engines[shard].serve(k)
        supervisor.note_served(k, page)
        if self.telemetry.enabled:
            self.telemetry.record_query(shard)
        return page

    def _recover_shard(self, shard: int) -> None:
        elapsed = self.robustness.supervisors[shard].recover()
        self.faults.mark_recovered(shard)
        if self.telemetry.enabled:
            self.telemetry.record_recovery(shard, elapsed)

    def submit_feedback(
        self, query_id: Hashable, page_index: int, visits: float = 1.0
    ) -> None:
        """Buffer one visit-feedback event for the query's shard.

        Raises ``ValueError``, buffering and counting nothing, unless
        ``0 <= page_index <`` the shard's page count.
        """
        shard = self.shard_for(query_id)
        page_index = int(page_index)
        if not 0 <= page_index < self._shard_sizes[shard]:
            raise ValueError(
                "page index %d is outside shard %d's %d pages"
                % (page_index, shard, self._shard_sizes[shard])
            )
        self._pending_indices[shard].append(page_index)
        self._pending_visits[shard].append(float(visits))
        self.feedback_buffered += 1
        if self.telemetry.enabled:
            state = self.engines[shard].state
            # A crashed shard has no state to read the clicked quality
            # from; the event is still buffered and commits after recovery.
            if state is not None:
                self.telemetry.record_feedback(
                    float(state.pool.quality[page_index])
                )

    def flush_feedback(self) -> FlushReport:
        """Commit all buffered feedback, one OCC batch commit per shard.

        Returns a :class:`~repro.robustness.occ.FlushReport` describing the
        outcome (committed events, conflicts, retries, dead letters; truthy
        iff anything committed — legacy ``if router.flush_feedback():``
        call sites keep working).  Each shard's popularity state advances
        by at most one version per clean flush, which is what the cache
        staleness budget counts against.  Shards that fault injection has
        down are skipped — their buffers keep growing (backpressure) until
        the shard recovers.
        """
        report = FlushReport()
        faults = self.faults
        for shard, engine in enumerate(self.engines):
            if faults.enabled:
                if faults.is_down(shard, self.robustness.fault_queries):
                    continue
                if faults.needs_recovery(shard):
                    self._recover_shard(shard)
            self._flush_shard(shard, engine, report)
        if report.committed:
            self.flushes += 1
            if self.telemetry.enabled:
                self.telemetry.record_flush(report.committed)
        return report

    def _flush_shard(self, shard: int, engine: ServingEngine, report: FlushReport) -> None:
        """Commit one shard's buffered batch (plus any reorder-deferred one)."""
        faults = self.faults
        held = faults.take_deferred(shard) if faults.enabled else None
        batches = []
        indices = self._pending_indices[shard]
        if indices:
            batch = (
                np.asarray(indices, dtype=int),
                np.asarray(self._pending_visits[shard]),
            )
            self._pending_indices[shard] = []
            self._pending_visits[shard] = []
            fault = faults.take_batch_fault(shard) if faults.enabled else None
            if fault == "drop":
                report.dropped_events += batch[0].size
            elif fault == "duplicate":
                batches.extend((batch, batch))
            elif fault == "reorder":
                # Held back until the next flush; a batch deferred earlier
                # (``held``) still commits below, after the current one.
                faults.defer_batch(shard, batch[0], batch[1])
            else:
                batches.append(batch)
        if held is not None:
            batches.append(held)
        for batch_indices, batch_visits in batches:
            report.batches += 1
            report.committed += self._commit_shard(
                shard, engine, batch_indices, batch_visits, report
            )

    def _commit_shard(
        self,
        shard: int,
        engine: ServingEngine,
        indices: np.ndarray,
        visits: np.ndarray,
        report: FlushReport,
    ) -> int:
        """OCC commit loop for one batch: read version, commit, retry, park.

        Returns the number of events committed (0 if the batch was
        dead-lettered).  Conflicts come from the fault injector's scripted
        concurrent writer, which bumps the store version between our
        version read and the commit — exactly the window a real concurrent
        writer would hit.
        """
        robustness = self.robustness
        supervisors = robustness.supervisors
        supervisor = supervisors[shard] if supervisors is not None else None
        policy = robustness.retry_policy
        faults = self.faults
        conflicts = 0
        while True:
            expected = engine.state.version
            injected = faults.enabled and faults.take_conflict(shard)
            if injected:
                # The scripted concurrent writer commits first.
                engine.state.bump_version()
                if supervisor is not None:
                    supervisor.journal_bump()
            else:
                rng_state = (
                    supervisor.capture_rng_state() if supervisor is not None else None
                )
                if engine.state.commit_visits_at(
                    indices, visits, expected, rng=engine.rng
                ):
                    if supervisor is not None:
                        supervisor.journal_commit(indices, visits, rng_state)
                    return int(indices.size)
            conflicts += 1
            report.conflicts += 1
            robustness.occ_conflicts += 1
            if self.telemetry.enabled:
                self.telemetry.record_commit_conflict()
            if conflicts >= policy.max_attempts:
                robustness.dead_letters.park(
                    DeadLetter(
                        shard=shard,
                        indices=indices,
                        visits=visits,
                        attempts=conflicts,
                    )
                )
                report.dead_letter_batches += 1
                report.dead_letter_events += int(indices.size)
                if self.telemetry.enabled:
                    self.telemetry.record_dead_letter(int(indices.size))
                return 0
            report.retries += 1
            robustness.occ_retries += 1
            backoff = policy.backoff_seconds(conflicts, robustness.retry_rng)
            report.backoff_seconds += backoff
            robustness.backoff_seconds += backoff
            if self.telemetry.enabled:
                self.telemetry.record_commit_retry()
            if backoff > 0.0:
                robustness.sleep(backoff)

    def redeliver_dead_letters(self) -> FlushReport:
        """Re-commit every parked dead-letter batch through the OCC loop.

        The operator's recovery hatch once the conflict storm has passed;
        batches that conflict out again are parked again.
        """
        report = FlushReport()
        for letter in self.robustness.dead_letters.drain():
            report.batches += 1
            report.committed += self._commit_shard(
                letter.shard,
                self.engines[letter.shard],
                letter.indices,
                letter.visits,
                report,
            )
        return report

    def advance_day(self) -> None:
        """Run one lifecycle day on every shard (buffered feedback first).

        Under fault injection, downed shards skip the lifecycle step — a
        dead process ages no pages — and supervised shards journal each
        day's replacement effect so crash recovery replays it exactly.
        """
        self.flush_feedback()
        faults = self.faults
        supervisors = self.robustness.supervisors
        for shard, engine in enumerate(self.engines):
            if faults.enabled and (
                faults.is_down(shard, self.robustness.fault_queries)
                or faults.needs_recovery(shard)
            ):
                continue
            day_before = float(engine.day)
            replaced = engine.advance_day()
            if supervisors is not None:
                supervisors[shard].journal_day(replaced, day_before)

    def cache_stats(self) -> CacheStats:
        """Aggregate cache counters across shards."""
        total = CacheStats()
        for engine in self.engines:
            if engine.cache is None:
                continue
            stats = engine.cache.stats
            total.hits += stats.hits
            total.misses += stats.misses
            total.stale_evictions += stats.stale_evictions
            total.capacity_evictions += stats.capacity_evictions
            total.invalidations += stats.invalidations
        return total

    def stats(self) -> Dict[str, float]:
        """Routing and cache counters as one flat dictionary."""
        robustness = self.robustness
        report = {
            "n_shards": float(self.n_shards),
            "n_pages": float(self.n_pages),
            "queries_routed": float(self.queries_routed),
            "feedback_buffered": float(self.feedback_buffered),
            "flushes": float(self.flushes),
            "occ_conflicts": float(robustness.occ_conflicts),
            "occ_retries": float(robustness.occ_retries),
            "occ_backoff_seconds": float(robustness.backoff_seconds),
            "dead_letter_batches": float(robustness.dead_letters.total_batches),
            "dead_letter_events": float(robustness.dead_letters.total_events),
        }
        for shard, count in enumerate(self.queries_per_shard):
            report["queries_shard_%d" % shard] = float(count)
        supervisors = robustness.supervisors
        if supervisors is not None:
            totals: Dict[str, float] = {}
            for supervisor in supervisors:
                for name, value in supervisor.counters().items():
                    totals[name] = totals.get(name, 0.0) + value
            # All-shards bit-identity is the AND, not the sum.
            totals["recovered_bit_identical"] = min(
                supervisor.counters()["recovered_bit_identical"]
                for supervisor in supervisors
            )
            report.update(totals)
        if self.faults.enabled:
            report.update(self.faults.counters())
        report.update(self.cache_stats().as_dict())
        return report


__all__ = [
    "SHARD_MEMO_LIMIT",
    "RouterRobustnessState",
    "ShardedRouter",
    "stable_shard_hash",
]
