"""High-level helpers that wrap the simulator for common measurements.

The experiment drivers and benchmarks use these functions instead of wiring
up a :class:`~repro.simulation.engine.Simulator` by hand, so the warm-up,
probe-injection and averaging conventions stay identical across figures.

All helpers run their repetitions through the vectorized
:class:`~repro.simulation.batch.BatchSimulator` by default (``engine=
"batch"``), which advances every replicate in lockstep as one ``(R, n)``
array program.  Because the batch engine feeds each replicate from the same
``spawn_rngs`` stream the sequential loop would use, switching engines never
changes the numbers: per-replicate results are bit-identical between
``engine="batch"`` and ``engine="sequential"`` at equal seeds.

``n_workers`` flows through to :func:`~repro.simulation.batch.run_batch`
unchanged; its default (``None``) steps large replicate batches in one
block per core on threads, so the figure drivers' policy sweeps use spare
cores without any caller opt-in — and, replicates being stream-pinned,
without changing a single number.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.community.config import CommunityConfig
from repro.core.policy import RankPromotionPolicy
from repro.simulation.batch import run_batch
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.result import SimulationResult
from repro.utils.rng import RandomSource, spawn_rngs
from repro.visits.attention import AttentionModel
from repro.visits.surfing import MixedSurfingModel

VALID_ENGINES = ("batch", "sequential")


def _run_once(
    community: CommunityConfig,
    policy: RankPromotionPolicy,
    config: SimulationConfig,
    attention: Optional[AttentionModel] = None,
    surfing: Optional[MixedSurfingModel] = None,
    rng: RandomSource = None,
) -> SimulationResult:
    simulator = Simulator(
        community=community,
        ranker=policy.build_ranker(),
        config=config.with_seed(rng),
        attention=attention,
        surfing=surfing,
    )
    return simulator.run()


def _run_replicates(
    community: CommunityConfig,
    policy: RankPromotionPolicy,
    config: SimulationConfig,
    attention: Optional[AttentionModel] = None,
    surfing: Optional[MixedSurfingModel] = None,
    repetitions: int = 1,
    seed: RandomSource = None,
    engine: str = "batch",
    n_workers: Optional[int] = None,
    telemetry=None,
) -> List[SimulationResult]:
    """Run all repetitions of one configuration; one result per replicate.

    The replicate streams are spawned from ``seed`` (default
    ``config.seed``, as :func:`~repro.simulation.batch.run_batch` does).
    ``spawn_rngs`` hands replicate ``r`` the same generator regardless of
    the engine, so the two paths agree replicate-for-replicate.
    """
    if engine not in VALID_ENGINES:
        raise ValueError("engine must be one of %s, got %r" % (VALID_ENGINES, engine))
    rngs = spawn_rngs(seed if seed is not None else config.seed, repetitions)
    if engine == "sequential":
        return [
            _run_once(community, policy, config, attention, surfing, rng)
            for rng in rngs
        ]
    return run_batch(
        community,
        policy.build_ranker(),
        config,
        attention=attention,
        surfing=surfing,
        rngs=rngs,
        n_workers=n_workers,
        telemetry=telemetry,
    )


def measure_qpc(
    community: CommunityConfig,
    policy: RankPromotionPolicy,
    config: Optional[SimulationConfig] = None,
    attention: Optional[AttentionModel] = None,
    surfing: Optional[MixedSurfingModel] = None,
    repetitions: int = 1,
    seed: RandomSource = None,
    engine: str = "batch",
    n_workers: Optional[int] = None,
) -> Dict[str, float]:
    """Measure absolute and normalized QPC for one policy, averaged over runs."""
    config = config or SimulationConfig()
    results = _run_replicates(
        community, policy, config, attention, surfing,
        repetitions, seed, engine, n_workers,
    )
    absolute = [result.qpc_absolute for result in results]
    normalized = [result.qpc_normalized for result in results]
    return {
        "qpc_absolute": float(np.mean(absolute)),
        "qpc_normalized": float(np.mean(normalized)),
        "qpc_absolute_std": float(np.std(absolute)),
        "qpc_normalized_std": float(np.std(normalized)),
        "repetitions": float(repetitions),
    }


def measure_tbp(
    community: CommunityConfig,
    policy: RankPromotionPolicy,
    probe_quality: float = 0.4,
    config: Optional[SimulationConfig] = None,
    repetitions: int = 1,
    seed: RandomSource = None,
    engine: str = "batch",
    n_workers: Optional[int] = None,
) -> Dict[str, float]:
    """Measure the time for a fresh probe page to become popular.

    Probes that never reach 99% of their quality within the recorded horizon
    are counted at the horizon (a conservative lower bound), and the fraction
    of such censored runs is reported separately.
    """
    config = config or SimulationConfig()
    config = SimulationConfig(
        warmup_days=config.warmup_days,
        measure_days=config.measure_days,
        mode=config.mode,
        seed=config.seed,
        probe_quality=probe_quality,
        probe_horizon_days=config.probe_horizon_days,
        snapshot_awareness=False,
    )
    results = _run_replicates(
        community, policy, config,
        repetitions=repetitions, seed=seed, engine=engine, n_workers=n_workers,
    )
    values, censored = [], 0
    for result in results:
        if result.tbp_days is None:
            censored += 1
            values.append(float(config.probe_horizon_days))
        else:
            values.append(result.tbp_days)
    return {
        "tbp_days": float(np.mean(values)),
        "tbp_days_std": float(np.std(values)),
        "censored_fraction": censored / float(repetitions),
        "repetitions": float(repetitions),
    }


def popularity_trajectory(
    community: CommunityConfig,
    policy: RankPromotionPolicy,
    probe_quality: float = 0.4,
    horizon_days: int = 500,
    config: Optional[SimulationConfig] = None,
    repetitions: int = 1,
    seed: RandomSource = None,
    engine: str = "batch",
    n_workers: Optional[int] = None,
) -> np.ndarray:
    """Average popularity trajectory of a fresh probe page (Figure 4a style).

    Trajectories shorter than the horizon (probe retired early) are padded
    with their last value before averaging.
    """
    base = config or SimulationConfig()
    config = SimulationConfig(
        warmup_days=base.warmup_days,
        measure_days=base.measure_days,
        mode=base.mode,
        seed=base.seed,
        probe_quality=probe_quality,
        probe_horizon_days=horizon_days,
        snapshot_awareness=False,
    )
    results = _run_replicates(
        community, policy, config,
        repetitions=repetitions, seed=seed, engine=engine, n_workers=n_workers,
    )
    trajectories = []
    for result in results:
        trajectory = result.probe_trajectory
        if trajectory is None or trajectory.size == 0:
            trajectory = np.zeros(horizon_days)
        if trajectory.size < horizon_days:
            pad_value = trajectory[-1] if trajectory.size else 0.0
            trajectory = np.concatenate(
                [trajectory, np.full(horizon_days - trajectory.size, pad_value)]
            )
        trajectories.append(trajectory[:horizon_days])
    return np.mean(np.asarray(trajectories), axis=0)


def compare_policies(
    community: CommunityConfig,
    policies: Dict[str, RankPromotionPolicy],
    config: Optional[SimulationConfig] = None,
    attention: Optional[AttentionModel] = None,
    surfing: Optional[MixedSurfingModel] = None,
    repetitions: int = 1,
    seed: RandomSource = None,
    engine: str = "batch",
    n_workers: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Measure QPC for several policies on the same community settings."""
    results = {}
    for name, policy in policies.items():
        results[name] = measure_qpc(
            community,
            policy,
            config=config,
            attention=attention,
            surfing=surfing,
            repetitions=repetitions,
            seed=seed,
            engine=engine,
            n_workers=n_workers,
        )
    return results


__all__ = [
    "measure_qpc",
    "measure_tbp",
    "popularity_trajectory",
    "compare_policies",
    "VALID_ENGINES",
]
