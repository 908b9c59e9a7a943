"""Figure 8 — mixed surfing and searching.

When a fraction x of page visits comes from random surfing (link following
plus teleportation) rather than from the search engine, absolute QPC changes:
a little surfing helps deterministic ranking (teleportation explores for
free), too much hurts everyone, and randomized rank promotion is never worse
than deterministic ranking at any x.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.defaults import scaled_settings
from repro.experiments.figure7 import POLICIES
from repro.experiments.results import ExperimentResult
from repro.simulation.runner import measure_qpc
from repro.utils.rng import RandomSource, derive_seed
from repro.visits.surfing import MixedSurfingModel

DEFAULT_X_VALUES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def run(
    scale: str = "fast",
    seed: RandomSource = 0,
    x_values: Sequence[float] = DEFAULT_X_VALUES,
    teleportation: float = 0.15,
) -> ExperimentResult:
    """Absolute QPC vs fraction of random surfing for the three rankings."""
    settings = scaled_settings(scale)
    community = settings.community
    config = settings.simulation_config()
    result = ExperimentResult(
        experiment="figure8",
        title="Influence of the extent of random surfing",
        x_label="fraction of random surfing (x)",
        y_label="absolute QPC",
    )
    series = {name: result.add_series(name) for name in POLICIES}
    for x in x_values:
        surfing = MixedSurfingModel(surfing_fraction=x, teleportation=teleportation)
        for name, policy in POLICIES.items():
            measured = measure_qpc(
                community,
                policy,
                config=config,
                surfing=surfing,
                repetitions=settings.repetitions,
                seed=derive_seed(seed, "fig8-%s-%.2f" % (name, x)),
            )
            series[name].add(x, measured["qpc_absolute"])
    result.notes["scale"] = scale
    result.notes["teleportation"] = "%.2f" % teleportation
    result.notes["shape_check"] = (
        "randomized promotion should never fall below deterministic ranking; a small "
        "amount of surfing should help deterministic ranking"
    )
    return result


__all__ = ["run", "DEFAULT_X_VALUES"]
