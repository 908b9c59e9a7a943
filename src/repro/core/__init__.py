"""Core contribution: randomized rank promotion for search result ranking.

This package implements the scheme of Section 4 of the paper:

1. a *promotion rule* selects the promotion pool ``P_p`` (uniform at random
   with probability ``r``, or selectively the zero-awareness pages);
2. the promotion pool is shuffled into a randomized list ``L_p`` while the
   remaining pages are ranked deterministically by popularity into ``L_d``;
3. the two lists are merged: the top ``k - 1`` deterministic results are
   protected, and every later slot is filled from ``L_p`` with probability
   ``r`` and from ``L_d`` otherwise.

The :class:`~repro.core.rankers.Ranker` hierarchy exposes this scheme next to
the baselines it is evaluated against (pure popularity ranking, a fully
random ranking, and the quality-ordered oracle used to normalize QPC), and
:class:`~repro.core.policy.RankPromotionPolicy` captures the paper's
recommended recipe (selective promotion, ``r = 0.1``, ``k`` in ``{1, 2}``).
"""

from repro.core.promotion import (
    AgeThresholdPromotionRule,
    NoPromotionRule,
    PopularityThresholdPromotionRule,
    PromotionRule,
    SelectivePromotionRule,
    UniformPromotionRule,
)
from repro.core.merge import randomized_merge, merge_positions
from repro.core.rankers import (
    PopularityRanker,
    QualityOracleRanker,
    RandomRanker,
    RandomizedPromotionRanker,
    Ranker,
    RankingContext,
)
from repro.core.rankers_context import BatchRankingContext
from repro.core.policy import RankPromotionPolicy, RECOMMENDED_POLICY

__all__ = [
    "PromotionRule",
    "UniformPromotionRule",
    "SelectivePromotionRule",
    "NoPromotionRule",
    "AgeThresholdPromotionRule",
    "PopularityThresholdPromotionRule",
    "randomized_merge",
    "merge_positions",
    "Ranker",
    "RankingContext",
    "BatchRankingContext",
    "PopularityRanker",
    "RandomizedPromotionRanker",
    "QualityOracleRanker",
    "RandomRanker",
    "RankPromotionPolicy",
    "RECOMMENDED_POLICY",
]
