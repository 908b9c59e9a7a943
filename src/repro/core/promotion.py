"""Promotion pool selection rules.

A promotion rule decides which pages are candidates for exploration, i.e.
which pages are placed in the promotion pool ``P_p`` of the randomized merge.
The paper studies the two extremes of the spectrum:

* :class:`UniformPromotionRule` — every page enters the pool independently
  with probability ``r``;
* :class:`SelectivePromotionRule` — exactly the pages whose awareness among
  monitored users is zero enter the pool.

Additional rules (:class:`AgeThresholdPromotionRule`,
:class:`PopularityThresholdPromotionRule`) are provided as natural points in
between, used by the ablation benchmarks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.rankers_context import BatchRankingContext, RankingContext
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive, check_probability


class PromotionRule(abc.ABC):
    """Selects the promotion pool from the current community state."""

    @abc.abstractmethod
    def select(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        """Return a boolean mask over pages: ``True`` marks promoted pages."""

    def select_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Select pools for ``R`` replicates at once; returns an ``(R, n)`` mask.

        Row ``r`` must equal ``self.select(context.row(r), rngs[r])``,
        consuming ``rngs[r]`` exactly as the sequential call would.  The
        default loops over rows so custom rules stay compatible; the built-in
        rules override it with vectorized (or draw-preserving) versions.
        Replicate blocks of the batch engine call one rule from several
        threads at once, so a rule must keep no per-call state on itself
        (the built-in ones are frozen); run a stateful one with
        ``n_workers=1``.
        """
        return np.asarray(
            [
                self.select(context.row(row), rngs[row])
                for row in range(context.replicates)
            ],
            dtype=bool,
        )

    def describe(self) -> str:
        """Short description used in experiment reports."""
        return type(self).__name__


@dataclass(frozen=True)
class NoPromotionRule(PromotionRule):
    """Empty promotion pool; combined with any merge this is deterministic ranking."""

    def select(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        return np.zeros(context.n, dtype=bool)

    def select_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        return np.zeros((context.replicates, context.n), dtype=bool)


@dataclass(frozen=True)
class UniformPromotionRule(PromotionRule):
    """Every page is promoted independently with probability ``probability``.

    The paper ties this probability to the degree of randomization ``r`` of
    the merge, so the expected pool is an ``r`` fraction of the community.
    """

    probability: float = 0.1

    def __post_init__(self) -> None:
        check_probability("probability", self.probability)

    def select(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        generator = as_rng(rng)
        return generator.random(context.n) < self.probability

    def select_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        draws = np.empty((context.replicates, context.n), dtype=float)
        for row in range(context.replicates):
            as_rng(rngs[row]).random(out=draws[row])
        return draws < self.probability

    def describe(self) -> str:
        return "Uniform(p=%.3f)" % self.probability


@dataclass(frozen=True)
class SelectivePromotionRule(PromotionRule):
    """Promote exactly the pages with zero awareness among monitored users.

    This is the rule the paper recommends: with a small randomization budget,
    focusing it entirely on pages that no monitored user has discovered yet
    is the most effective use of exploration.

    "Zero awareness" means fewer than one aware monitored user.  Under the
    simulator's stochastic mode awareness counts are integers, so this is the
    literal zero-awareness set; under the fluid (expected-value) mode it is
    the natural analogue — pages whose expected number of aware users is
    still below one.
    """

    def select(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        awareness = np.asarray(context.awareness)
        if context.monitored_population:
            return awareness * context.monitored_population < 1.0 - 1e-9
        return awareness <= 0.0

    def select_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        awareness = context.awareness
        if context.monitored_population:
            return awareness * context.monitored_population < 1.0 - 1e-9
        return awareness <= 0.0

    def describe(self) -> str:
        return "Selective(zero-awareness)"


@dataclass(frozen=True)
class AgeThresholdPromotionRule(PromotionRule):
    """Promote pages younger than ``max_age_days``.

    An extension rule in the spirit of the age-weighted PageRank baselines
    discussed in the paper's related work: exploration is aimed at recency
    rather than at observed awareness.
    """

    max_age_days: float = 30.0

    def __post_init__(self) -> None:
        check_positive("max_age_days", self.max_age_days)

    def select(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        if context.ages is None:
            raise ValueError("AgeThresholdPromotionRule requires page ages in the context")
        return np.asarray(context.ages) < self.max_age_days

    def select_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        if context.ages is None:
            raise ValueError("AgeThresholdPromotionRule requires page ages in the context")
        return context.ages < self.max_age_days

    def describe(self) -> str:
        return "AgeThreshold(<%.0f days)" % self.max_age_days


@dataclass(frozen=True)
class PopularityThresholdPromotionRule(PromotionRule):
    """Promote pages whose popularity is below ``threshold``.

    Generalizes the selective rule (which is the special case
    ``threshold -> 0+`` measured on awareness): any page the popularity
    signal considers negligible is given a chance to prove itself.
    """

    threshold: float = 0.01

    def __post_init__(self) -> None:
        check_probability("threshold", self.threshold)

    def select(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        return np.asarray(context.popularity) < self.threshold

    def select_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        return context.popularity < self.threshold

    def describe(self) -> str:
        return "PopularityThreshold(<%.3f)" % self.threshold


__all__ = [
    "PromotionRule",
    "NoPromotionRule",
    "UniformPromotionRule",
    "SelectivePromotionRule",
    "AgeThresholdPromotionRule",
    "PopularityThresholdPromotionRule",
]
