"""One frozen construction surface for the serving tier.

The serving stack historically grew three parallel construction idioms:
``ShardedRouter.from_community(...)`` with six keyword knobs, post-hoc
``router.telemetry = recorder`` attribute assignment, and a separate
``enable_robustness(retry=..., seed=...)`` call.  The multi-tenant
process pool forces the issue — a configuration must cross process
boundaries, so it has to be *data*.  :class:`ServingConfig` is that
data: a frozen, JSON-round-trippable dataclass carrying every serving
knob (community size, sharding, policy, cache, OCC retry, tenancy,
telemetry), with :func:`build_router` and :func:`build_pool` as the two
entry points that turn it into a running service.

``ShardedRouter.from_community`` remains as a thin deprecation shim that
delegates here, so the construction path — and therefore every random
stream — is shared and the resulting router is bit-identical whichever
door was used.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.community.config import CommunityConfig, DEFAULT_COMMUNITY
from repro.core.policy import RankPromotionPolicy
from repro.robustness.occ import RetryPolicy
from repro.simulation.config import VALID_MODES
from repro.utils.rng import RandomSource, spawn_rngs

#: Sentinel: ``build_router``/``build_pool`` seed defaults to the config's.
_CONFIG_SEED = object()


@dataclass(frozen=True)
class ServingConfig:
    """Complete, serializable description of one serving deployment.

    ``n_pages`` is the community size *per tenant* (every tenant hosts an
    equally-shaped community scaled from the paper's defaults, the same
    convention ``serve-bench`` always used).  ``workers == 0`` means the
    classic in-process single router; ``workers >= 1`` selects the
    process-per-shard pool, with ``clients`` optional concurrent OCC
    writer processes hammering the shared-memory popularity state.

    The dataclass is frozen and JSON-round-trippable (:meth:`to_json` /
    :meth:`from_json`), which is what lets one config be validated once
    in the parent and shipped verbatim to every worker and client
    process.
    """

    n_pages: int = 20_000
    n_shards: int = 4
    mode: str = "fluid"
    policy_rule: str = "selective"
    policy_k: int = 1
    policy_r: float = 0.1
    cache_capacity: Optional[int] = 64
    staleness_budget: int = 4
    seed: int = 0
    feedback_rate: float = 0.2
    # Route engine full re-sorts through the adaptive rank_day router
    # (copy / run-merge / windowed / full), using the maintained order as
    # the near-sorted hint; bit-identical to the unhinted full sort.
    adaptive_rank: bool = False
    # Multi-tenant pool shape (workers == 0 selects the in-process router).
    tenants: int = 1
    workers: int = 0
    clients: int = 0
    inbox_capacity: int = 8
    # OCC write path.
    max_attempts: int = 4
    backoff_base: float = 1e-4
    # Telemetry.
    telemetry_window: Optional[int] = None
    telemetry_out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_pages < 1:
            raise ValueError("n_pages must be >= 1, got %d" % self.n_pages)
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1, got %d" % self.n_shards)
        if self.mode not in VALID_MODES:
            raise ValueError(
                "mode must be one of %s, got %r" % (VALID_MODES, self.mode)
            )
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError(
                "cache_capacity must be >= 1 or None, got %d" % self.cache_capacity
            )
        if self.staleness_budget < 0:
            raise ValueError(
                "staleness_budget must be non-negative, got %d" % self.staleness_budget
            )
        if not 0.0 <= self.feedback_rate <= 1.0:
            raise ValueError(
                "feedback_rate must be in [0, 1], got %r" % (self.feedback_rate,)
            )
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1, got %d" % self.tenants)
        if self.workers < 0:
            raise ValueError("workers must be non-negative, got %d" % self.workers)
        if self.clients < 0:
            raise ValueError("clients must be non-negative, got %d" % self.clients)
        if self.inbox_capacity < 1:
            raise ValueError(
                "inbox_capacity must be >= 1, got %d" % self.inbox_capacity
            )
        # Policy and retry knobs validate through their own dataclasses so
        # a bad config fails at construction, not inside a worker process.
        self.policy()
        self.retry_policy()

    # ------------------------------------------------------------- views

    def policy(self) -> RankPromotionPolicy:
        """The rank promotion policy the config describes."""
        return RankPromotionPolicy(self.policy_rule, self.policy_k, self.policy_r)

    def retry_policy(self) -> RetryPolicy:
        """The OCC retry/backoff policy the config describes."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_backoff_seconds=self.backoff_base,
        )

    def community(self) -> CommunityConfig:
        """One tenant's community: the paper's defaults at ``n_pages``."""
        return DEFAULT_COMMUNITY.scaled(self.n_pages)

    def replace(self, **changes) -> "ServingConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -------------------------------------------------------- round trip

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "ServingConfig":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                "unknown ServingConfig fields: %s" % ", ".join(sorted(unknown))
            )
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServingConfig":
        return cls.from_dict(json.loads(text))


def build_router(
    config: ServingConfig,
    *,
    community: Optional[CommunityConfig] = None,
    seed: RandomSource = _CONFIG_SEED,
    policy: Optional[RankPromotionPolicy] = None,
    telemetry=None,
    states: Optional[list] = None,
):
    """Build a :class:`~repro.serving.router.ShardedRouter` from ``config``.

    This is *the* construction path: the ``from_community`` shim, the
    benches, and the pool's worker processes all come through here, so
    shard partitioning (remainder spread over the first shards) and the
    per-shard child random streams are identical everywhere.

    Args:
        config: the deployment description.
        community: community override (defaults to ``config.community()``).
            The explicit override wins — it lets callers keep custom
            user/page ratios that the JSON form cannot carry.
        seed: random-source override for the shard stream spawn; the
            default uses ``config.seed``.  Accepts generators and seed
            sequences for legacy call sites.
        policy: policy-object override (defaults to ``config.policy()``,
            which is field-for-field identical).
        telemetry: a recorder to attach (replaces the historical post-hoc
            ``router.telemetry = ...`` assignment).
        states: optional per-shard externally-owned
            :class:`~repro.serving.state.PopularityState` objects — the
            serving pool passes shared-memory-backed states here so the
            engines serve from (and commit to) cross-process arrays.
    """
    from repro.serving.cache import ResultPageCache
    from repro.serving.engine import ServingEngine
    from repro.serving.router import ShardedRouter

    if community is None:
        community = config.community()
    if policy is None:
        policy = config.policy()
    if seed is _CONFIG_SEED:
        seed = config.seed
    n_shards = config.n_shards
    if n_shards > community.n_pages:
        raise ValueError(
            "n_shards (%d) cannot exceed n_pages (%d)"
            % (n_shards, community.n_pages)
        )
    if states is not None and len(states) != n_shards:
        raise ValueError(
            "states must supply one state per shard (%d), got %d"
            % (n_shards, len(states))
        )
    base, remainder = divmod(community.n_pages, n_shards)
    rngs = spawn_rngs(seed, n_shards)
    engines = []
    for shard, rng in enumerate(rngs):
        # Spread the remainder over the first shards so the shard total
        # equals the requested community size exactly.
        shard_community = community.scaled(base + (1 if shard < remainder else 0))
        cache = None
        if config.cache_capacity is not None:
            cache = ResultPageCache(
                capacity=config.cache_capacity,
                staleness_budget=config.staleness_budget,
            )
        state = None
        if states is not None:
            state = states[shard]
            # An engine built with external state skips the quality draw a
            # self-built engine makes; burn the same draw so the shard's
            # serving stream stays aligned with the single-process router.
            shard_community.sample_qualities(rng)
        engines.append(
            ServingEngine(
                shard_community,
                policy,
                mode=config.mode,
                cache=cache,
                state=state,
                name="shard-%d" % shard,
                seed=rng,
                adaptive_rank=config.adaptive_rank,
            )
        )
    router = ShardedRouter(engines)
    router.robustness.retry_policy = config.retry_policy()
    if telemetry is not None:
        router.attach_telemetry(telemetry)
    return router


def build_pool(config: ServingConfig, *, telemetry=None, warm: bool = False):
    """Build a :class:`~repro.serving.pool.ServingPool` from ``config``.

    Requires ``config.workers >= 1``; the pool starts its worker
    processes immediately.  ``warm=True`` seeds every tenant shard with
    the benchmark's steady-state awareness profile before the workers
    fork.  See :mod:`repro.serving.pool`.
    """
    from repro.serving.pool import ServingPool

    return ServingPool(config, telemetry=telemetry, warm=warm)


__all__ = ["ServingConfig", "build_router", "build_pool"]
