"""Per-shard supervision: degradation policy, crash teardown, recovery.

One :class:`ShardSupervisor` watches one serving engine.  During normal
operation it maintains the shard's crash-consistency artifacts (a
:class:`~repro.robustness.journal.ShardCheckpoint` plus the
:class:`~repro.robustness.journal.FeedbackJournal` of mutations since) and
a last-known-good copy of every page length it has served.  When the fault
injector takes the shard down the supervisor serves those stale pages
within an *escalating* staleness budget — each consecutive degraded serve
loosens the budget a step, up to a cap, after which queries are load-shed
— and when a crashed shard's downtime elapses it rebuilds the popularity
state from checkpoint + journal replay and verifies the restored state is
bit-identical to the pre-crash digest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.robustness.faults import LoadShedError
from repro.robustness.journal import FeedbackJournal, ShardCheckpoint, state_digest


@dataclass(frozen=True)
class DegradationPolicy:
    """Escalating staleness budget for serving a downed shard.

    The ``i``-th consecutive degraded serve is allowed staleness up to
    ``min(max_staleness_budget, base + step * (i - 1))``: early in an
    outage only nearly-fresh pages are served, a long outage gradually
    accepts staler ones, and beyond the cap the query is shed.  Staleness
    is measured in popularity mutations the stale page has missed —
    version lag at the fault plus feedback events buffered since.
    """

    base_staleness_budget: int = 16
    escalation_step: int = 8
    max_staleness_budget: int = 512

    def __post_init__(self) -> None:
        if self.base_staleness_budget < 0:
            raise ValueError(
                "base_staleness_budget must be non-negative, got %d"
                % self.base_staleness_budget
            )
        if self.escalation_step < 0:
            raise ValueError(
                "escalation_step must be non-negative, got %d" % self.escalation_step
            )
        if self.max_staleness_budget < self.base_staleness_budget:
            raise ValueError(
                "max_staleness_budget (%d) must be >= base_staleness_budget (%d)"
                % (self.max_staleness_budget, self.base_staleness_budget)
            )

    def budget(self, consecutive_degraded: int) -> int:
        """Allowed staleness for the n-th consecutive degraded serve."""
        if consecutive_degraded < 1:
            raise ValueError(
                "consecutive_degraded must be >= 1, got %d" % consecutive_degraded
            )
        return min(
            self.max_staleness_budget,
            self.base_staleness_budget
            + self.escalation_step * (consecutive_degraded - 1),
        )


class ShardSupervisor:
    """Crash-consistency and degradation state for one shard engine."""

    def __init__(self, shard: int, engine, degradation: DegradationPolicy) -> None:
        self.shard = shard
        self.engine = engine
        self.degradation = degradation
        self.journal = FeedbackJournal()
        self.checkpoint = ShardCheckpoint.capture(engine.state, engine.day)
        # Last-known-good page per requested k, with the version it was
        # fresh at — what degraded serves hand out while the shard is down.
        self._last_good: Dict[int, Tuple[np.ndarray, int]] = {}
        self._consecutive_degraded = 0
        self._pre_crash_digest: Optional[int] = None
        self._pre_crash_version = 0
        self.crashed = False
        # Counters (reported through the chaos bench and router stats).
        self.degraded_serves = 0
        self.load_sheds = 0
        self.recoveries = 0
        self.recovery_seconds = 0.0
        self.replayed_entries = 0
        self.recovered_bit_identical = True
        self.last_recovery_digest: Optional[int] = None

    # ------------------------------------------------------------ journaling

    def take_checkpoint(self) -> None:
        """Snapshot the live state and truncate the journal."""
        self.checkpoint = ShardCheckpoint.capture(self.engine.state, self.engine.day)
        self.journal.clear()

    def capture_rng_state(self) -> Optional[dict]:
        """Engine generator state, captured *before* a stochastic commit.

        Fluid commits are deterministic — nothing to capture.  Stochastic
        commits draw binomials from the engine's generator, so the caller
        snapshots the bit-generator state first and journals it alongside
        the committed batch; replay rebuilds a generator from it and
        re-draws identically.
        """
        if self.engine.state.mode == "fluid":
            return None
        return self.engine.rng.bit_generator.state

    def journal_commit(
        self,
        indices: np.ndarray,
        visits: np.ndarray,
        rng_state: Optional[dict] = None,
    ) -> None:
        """Journal one *successfully committed* feedback batch."""
        self.journal.append_commit(indices, visits, rng_state=rng_state)

    def journal_bump(self) -> None:
        self.journal.append_bump()

    def journal_day(self, replaced: np.ndarray, now: float) -> None:
        self.journal.append_day(replaced, now)

    # ----------------------------------------------------------- degradation

    def note_served(self, k: int, page: np.ndarray) -> None:
        """Record a successful fresh serve as the last-known-good page."""
        self._last_good[int(k)] = (page.copy(), self.engine.state.version)
        self._consecutive_degraded = 0

    def serve_degraded(self, k: int, pending_events: int) -> Tuple[np.ndarray, int]:
        """Serve the last-known-good page for ``k`` while the shard is down.

        Returns ``(page, staleness)`` or raises
        :class:`~repro.robustness.faults.LoadShedError` when the page's
        staleness exceeds the escalating budget (or no page is known).
        """
        self._consecutive_degraded += 1
        budget = self.degradation.budget(self._consecutive_degraded)
        entry = self._last_good.get(int(k))
        if entry is None:
            self.load_sheds += 1
            raise LoadShedError(
                "shard %d is down and has no last-known-good page for k=%d"
                % (self.shard, k)
            )
        page, version = entry
        if self.engine.state is not None:
            current_version = self.engine.state.version
        else:
            current_version = self._pre_crash_version
        staleness = (current_version - version) + int(pending_events)
        if staleness > budget:
            self.load_sheds += 1
            raise LoadShedError(
                "shard %d degraded serve staleness %d exceeds budget %d"
                % (self.shard, staleness, budget)
            )
        self.degraded_serves += 1
        return page, staleness

    # ------------------------------------------------------- crash / recover

    def crash(self, at_query: int) -> None:
        """Simulate process loss: drop the shard's in-memory serving state.

        The checkpoint and journal survive (they model durable storage);
        everything the engine holds in memory — popularity state, the
        maintained order, cached pages — is gone.  The pre-crash
        digest is taken first so recovery can prove bit-identity.
        """
        engine = self.engine
        if engine.state is None:
            return  # already crashed; nothing further to lose
        self._pre_crash_digest = state_digest(engine.state, engine.day)
        self._pre_crash_version = engine.state.version
        self.crashed = True
        engine.state = None
        engine._order = None
        engine._order_version = -1
        engine._dirty_scratch = None
        engine._promoted_mask = None
        if engine.cache is not None:
            engine.cache.invalidate()

    def recover(self) -> float:
        """Rebuild the shard from checkpoint + journal replay.

        Restores the popularity state bit-identically to the pre-crash
        digest (verified; tracked in ``recovered_bit_identical``), resets
        the engine's day clock, takes a fresh checkpoint, and returns the
        recovery wall-clock seconds.
        """
        start = time.perf_counter()
        engine = self.engine
        state = self.checkpoint.restore_state()
        self.replayed_entries += len(self.journal)
        days = self.journal.replay(state)
        engine.state = state
        engine.day = self.checkpoint.day + days
        engine._order = None
        engine._order_version = -1
        engine._dirty_scratch = None
        engine._promoted_mask = None
        recovered = state_digest(state, engine.day)
        self.last_recovery_digest = recovered
        if self._pre_crash_digest is not None and recovered != self._pre_crash_digest:
            self.recovered_bit_identical = False
        self.crashed = False
        self._pre_crash_digest = None
        self.take_checkpoint()
        elapsed = time.perf_counter() - start
        self.recoveries += 1
        self.recovery_seconds += elapsed
        return elapsed

    # ------------------------------------------------------------- reporting

    def counters(self) -> Dict[str, float]:
        return {
            "degraded_serves": float(self.degraded_serves),
            "load_sheds": float(self.load_sheds),
            "recoveries": float(self.recoveries),
            "recovery_seconds": float(self.recovery_seconds),
            "replayed_entries": float(self.replayed_entries),
            "recovered_bit_identical": float(self.recovered_bit_identical),
        }


__all__ = ["DegradationPolicy", "ShardSupervisor"]
