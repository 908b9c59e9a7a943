"""Figure 4 — effect of randomized rank promotion on TBP.

Panel (a): popularity evolution of a quality-0.4 page under non-randomized,
uniform-randomized and selective-randomized ranking (analysis).
Panel (b): time to become popular as the degree of randomization r varies,
for selective and uniform promotion, analysis and simulation side by side.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.spec import RankingSpec
from repro.analysis.solver import SteadyStateSolver
from repro.core.policy import RankPromotionPolicy
from repro.experiments.defaults import scaled_settings
from repro.experiments.results import ExperimentResult
from repro.simulation.runner import measure_tbp
from repro.utils.rng import RandomSource, derive_seed


def run_panel_a(
    scale: str = "fast",
    seed: RandomSource = 0,
    quality: float = 0.4,
    r: float = 0.2,
    k: int = 1,
    horizon_days: Optional[int] = None,
) -> ExperimentResult:
    """Popularity evolution of a quality-``quality`` page (analysis)."""
    settings = scaled_settings(scale)
    community = settings.community
    if horizon_days is None:
        horizon_days = settings.probe_horizon_days

    specs = {
        "no randomization": RankingSpec.nonrandomized(),
        "uniform randomization": RankingSpec.uniform(r=r, k=k),
        "selective randomization": RankingSpec.selective(r=r, k=k),
    }
    result = ExperimentResult(
        experiment="figure4a",
        title="Popularity evolution of a quality-%.2f page" % quality,
        x_label="time (days)",
        y_label="popularity",
    )
    step = max(1, horizon_days // 25)
    for name, spec in specs.items():
        model = SteadyStateSolver(
            community, spec, quality_groups=settings.solver_quality_groups, seed=seed
        ).solve()
        trajectory = model.popularity_trajectory(quality, horizon_days)
        series = result.add_series(name)
        for day in range(0, horizon_days, step):
            series.add(float(day), float(trajectory[day]))
    result.notes["settings"] = "r=%.2f, k=%d, %s scale" % (r, k, scale)
    return result


def run_panel_b(
    scale: str = "fast",
    seed: RandomSource = 0,
    quality: float = 0.4,
    k: int = 1,
    r_values=(0.0, 0.05, 0.1, 0.15, 0.2),
    include_simulation: bool = True,
) -> ExperimentResult:
    """TBP versus degree of randomization, analysis and simulation."""
    settings = scaled_settings(scale)
    community = settings.community
    result = ExperimentResult(
        experiment="figure4b",
        title="Time to become popular (quality %.2f) vs degree of randomization" % quality,
        x_label="degree of randomization (r)",
        y_label="TBP (days)",
    )

    analysis_series = {
        "selective (analysis)": lambda r: RankingSpec.selective(r=r, k=k),
        "uniform (analysis)": lambda r: RankingSpec.uniform(r=r, k=k),
    }
    for name, make_spec in analysis_series.items():
        series = result.add_series(name)
        for r in r_values:
            spec = RankingSpec.nonrandomized() if r == 0 else make_spec(r)
            model = SteadyStateSolver(
                community, spec, quality_groups=settings.solver_quality_groups, seed=seed
            ).solve()
            tbp = model.tbp(quality)
            horizon_cap = 10.0 * community.expected_lifetime_days
            series.add(r, min(tbp, horizon_cap))

    if include_simulation:
        config = settings.simulation_config(probe_quality=quality,
                                            probe_horizon_days=settings.probe_horizon_days)
        simulation_series = {
            "selective (simulation)": "selective",
            "uniform (simulation)": "uniform",
        }
        for name, rule in simulation_series.items():
            series = result.add_series(name)
            for r in r_values:
                policy = (
                    RankPromotionPolicy("none", 1, 0.0)
                    if r == 0
                    else RankPromotionPolicy(rule, k, r)
                )
                measured = measure_tbp(
                    community,
                    policy,
                    probe_quality=quality,
                    config=config,
                    repetitions=settings.repetitions,
                    seed=derive_seed(seed, "fig4b-%s-%.3f" % (rule, r)),
                )
                series.add(r, measured["tbp_days"])
        result.notes["censoring"] = (
            "simulated probes that never reach 99%% of quality are counted at the "
            "%d-day horizon" % settings.probe_horizon_days
        )

    result.notes["scale"] = scale
    result.notes["shape_check"] = "TBP should fall as r grows, fastest for selective promotion"
    return result


def run(scale: str = "fast", seed: RandomSource = 0, **kwargs) -> ExperimentResult:
    """Default entry point: panel (b), the quantitative TBP sweep."""
    return run_panel_b(scale=scale, seed=seed, **kwargs)


__all__ = ["run", "run_panel_a", "run_panel_b"]
