"""Deterministic, scripted fault injection for the serving tier.

A :class:`FaultPlan` is a declarative schedule of fault events pinned to
*query indices* of a serving stream: shard stalls and crashes, feedback
batch faults (drop/duplicate/reorder), OCC write conflicts, and result
cache version poisoning.  Because every event fires at a scripted query
count — never from wall-clock time or unseeded randomness — a chaos run is
exactly reproducible: the same plan, trace and seeds produce the same
degraded serves, the same retry sequences and the same recovery points.

The runtime half is the :class:`FaultInjector`, which the router and every
engine consult from their hot paths behind the same ``enabled`` guard the
telemetry recorder uses: a run without faults holds :data:`NULL_INJECTOR`
(``enabled = False``) and pays one attribute load and a predictable branch
per query, nothing else.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Recognized fault kinds (the wire schema of a fault-plan JSON file).
FAULT_KINDS = (
    "stall",      # shard unavailable for `duration` queries (state intact)
    "crash",      # shard loses in-memory state; recovery after `duration`
    "conflict",   # next `count` commit attempts see a concurrent writer
    "drop",       # next feedback batch of the shard is lost
    "duplicate",  # next feedback batch commits twice
    "reorder",    # next feedback batch commits after the following one
    "poison",     # cache entry versions corrupted before the next serve
)

#: Version stamp written into poisoned cache entries: so far in the past
#: that validate-on-read must reject the entry whatever the budget.
POISON_VERSION = -(2**40)


class LoadShedError(RuntimeError):
    """A query to an unavailable shard exceeded the staleness budget."""


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        at_query: 1-based query count at which the fault arms (the event
            fires before that query is served).
        shard: target shard index.
        duration: downtime in queries for ``stall``/``crash`` (0 means the
            shard recovers at its next touch).
        count: number of injected conflicts for ``conflict`` events.
    """

    kind: str
    at_query: int
    shard: int = 0
    duration: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                "kind must be one of %s, got %r" % (", ".join(FAULT_KINDS), self.kind)
            )
        if self.at_query < 1:
            raise ValueError("at_query must be >= 1, got %d" % self.at_query)
        if self.shard < 0:
            raise ValueError("shard must be non-negative, got %d" % self.shard)
        if self.duration < 0:
            raise ValueError("duration must be non-negative, got %d" % self.duration)
        if self.count < 1:
            raise ValueError("count must be >= 1, got %d" % self.count)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "at_query": int(self.at_query),
            "shard": int(self.shard),
            "duration": int(self.duration),
            "count": int(self.count),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultEvent":
        return cls(
            kind=payload["kind"],
            at_query=int(payload["at_query"]),
            shard=int(payload.get("shard", 0)),
            duration=int(payload.get("duration", 0)),
            count=int(payload.get("count", 1)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, serializable schedule of :class:`FaultEvent` entries.

    Plans are plain data — JSON round-trippable so a CI leg can pin one in
    the repository and a failing chaos run can be replayed byte for byte.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def max_shard(self) -> int:
        """Highest shard index any event targets (-1 for an empty plan)."""
        return max((event.shard for event in self.events), default=-1)

    def sorted_events(self) -> List[FaultEvent]:
        """Events in firing order (stable for equal query indices)."""
        return sorted(self.events, key=lambda event: event.at_query)

    def to_dict(self) -> Dict:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultPlan":
        return cls(
            events=tuple(
                FaultEvent.from_dict(entry) for entry in payload.get("events", ())
            )
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())


class NullInjector:
    """The do-nothing injector installed on every hot path by default."""

    enabled = False

    def on_query(self, query_index: int) -> None:
        pass

    def before_engine_serve(self, engine) -> None:
        pass


#: Shared disabled injector; router and engines default to this singleton.
NULL_INJECTOR = NullInjector()


class FaultInjector:
    """Runtime fault scheduler for one router under one :class:`FaultPlan`.

    The injector owns the per-shard availability windows (stall/crash
    downtime), the pending conflict and batch-fault queues, and the crash
    teardown trigger.  It is wired to a router by
    :meth:`~repro.serving.router.ShardedRouter.enable_robustness`, which
    also points every engine's ``faults`` attribute here so cache-poison
    events fire from inside the engine serve path.
    """

    enabled = True

    def __init__(self, plan: FaultPlan, router) -> None:
        n_shards = router.n_shards
        if plan.max_shard() >= n_shards:
            raise ValueError(
                "fault plan targets shard %d but the router has %d shards"
                % (plan.max_shard(), n_shards)
            )
        self.plan = plan
        self._router = router
        self._events = deque(plan.sorted_events())
        self._down_until = [0] * n_shards
        self._down_since = [0] * n_shards
        self._needs_recovery = [False] * n_shards
        self._conflicts = [0] * n_shards
        self._batch_faults: List[deque] = [deque() for _ in range(n_shards)]
        self._deferred: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [
            None
        ] * n_shards
        self._poison_pending = [False] * n_shards
        self._engine_shards: Dict[int, int] = {
            id(engine): shard for shard, engine in enumerate(router.engines)
        }
        # Event counters (reported by the chaos bench).
        self.crashes = 0
        self.stalls = 0
        self.conflicts_injected = 0
        self.batches_dropped = 0
        self.batches_duplicated = 0
        self.batches_reordered = 0
        self.poisons_applied = 0
        self.downtime_queries = 0

    # ------------------------------------------------------------ schedule

    def on_query(self, query_index: int) -> None:
        """Fire every scripted event due at or before ``query_index``."""
        events = self._events
        while events and events[0].at_query <= query_index:
            self._fire(events.popleft(), query_index)

    def _fire(self, event: FaultEvent, query_index: int) -> None:
        shard = event.shard
        if event.kind == "stall":
            self.stalls += 1
            self._begin_downtime(shard, event, query_index)
        elif event.kind == "crash":
            self.crashes += 1
            self._begin_downtime(shard, event, query_index)
            self._needs_recovery[shard] = True
            supervisors = self._router.robustness.supervisors
            if supervisors is not None:
                supervisors[shard].crash(at_query=query_index)
        elif event.kind == "conflict":
            self._conflicts[shard] += event.count
        elif event.kind == "poison":
            self._poison_pending[shard] = True
        else:  # drop / duplicate / reorder
            self._batch_faults[shard].append(event.kind)

    def _begin_downtime(
        self, shard: int, event: FaultEvent, query_index: int
    ) -> None:
        until = event.at_query + event.duration
        self._down_since[shard] = query_index
        self._down_until[shard] = max(self._down_until[shard], until)

    # ----------------------------------------------------------- liveness

    def poll(self, shard: int, query_index: int) -> str:
        """Shard availability at ``query_index``: ``up``/``down``/``recover``.

        ``recover`` means a crashed shard's downtime has elapsed and the
        caller must run recovery (checkpoint + journal replay) before using
        the engine; the caller acknowledges with :meth:`mark_recovered`.
        """
        if self._down_until[shard] > query_index:
            self.downtime_queries += 1
            return "down"
        if self._needs_recovery[shard]:
            return "recover"
        return "up"

    def is_down(self, shard: int, query_index: int) -> bool:
        """Whether the shard is inside a downtime window (no counting)."""
        return self._down_until[shard] > query_index

    def needs_recovery(self, shard: int) -> bool:
        """Whether a crashed shard still awaits checkpoint+journal recovery."""
        return self._needs_recovery[shard]

    def mark_recovered(self, shard: int) -> None:
        """Acknowledge that a crashed shard finished recovery."""
        self._needs_recovery[shard] = False

    def downtime_span(self, shard: int) -> Tuple[int, int]:
        """Most recent downtime window of the shard, in query indices."""
        return self._down_since[shard], self._down_until[shard]

    # -------------------------------------------------------- write faults

    def take_conflict(self, shard: int) -> bool:
        """Consume one pending injected conflict for a commit attempt."""
        if self._conflicts[shard] > 0:
            self._conflicts[shard] -= 1
            self.conflicts_injected += 1
            return True
        return False

    def take_batch_fault(self, shard: int) -> Optional[str]:
        """Consume the next scripted batch fault for a flushed batch."""
        faults = self._batch_faults[shard]
        if not faults:
            return None
        kind = faults.popleft()
        if kind == "drop":
            self.batches_dropped += 1
        elif kind == "duplicate":
            self.batches_duplicated += 1
        else:
            self.batches_reordered += 1
        return kind

    def defer_batch(
        self, shard: int, indices: np.ndarray, visits: np.ndarray
    ) -> None:
        """Hold a reordered batch until the shard's next flush."""
        held = self._deferred[shard]
        if held is not None:
            # Two reorders back to back: merge so nothing is silently lost.
            indices = np.concatenate([held[0], indices])
            visits = np.concatenate([held[1], visits])
        self._deferred[shard] = (indices, visits)

    def take_deferred(
        self, shard: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Pop a previously deferred batch, if any."""
        held = self._deferred[shard]
        self._deferred[shard] = None
        return held

    # -------------------------------------------------------- engine hook

    def before_engine_serve(self, engine) -> None:
        """Engine-side hook: apply pending cache poison for the shard."""
        shard = self._engine_shards.get(id(engine))
        if shard is None or not self._poison_pending[shard]:
            return
        self._poison_pending[shard] = False
        if engine.cache is not None:
            engine.cache.poison_versions(POISON_VERSION)
            self.poisons_applied += 1

    # ----------------------------------------------------------- reporting

    def counters(self) -> Dict[str, float]:
        """Injected-fault counters as one flat dictionary."""
        return {
            "fault_crashes": float(self.crashes),
            "fault_stalls": float(self.stalls),
            "fault_conflicts_injected": float(self.conflicts_injected),
            "fault_batches_dropped": float(self.batches_dropped),
            "fault_batches_duplicated": float(self.batches_duplicated),
            "fault_batches_reordered": float(self.batches_reordered),
            "fault_poisons_applied": float(self.poisons_applied),
            "fault_downtime_queries": float(self.downtime_queries),
        }


__all__ = [
    "FAULT_KINDS",
    "POISON_VERSION",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "LoadShedError",
    "NullInjector",
    "NULL_INJECTOR",
]
