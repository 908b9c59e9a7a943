"""Rank promotion policy objects and the paper's recommended recipe.

A :class:`RankPromotionPolicy` is a declarative description of a randomized
rank promotion configuration (promotion rule kind, ``k``, ``r``).  It can be
turned into a concrete :class:`~repro.core.rankers.Ranker` for the simulator
or into a :class:`~repro.analysis.spec.RankingSpec` for the analytical model,
so both evaluation paths are guaranteed to study the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.promotion import SelectivePromotionRule, UniformPromotionRule
from repro.core.rankers import PopularityRanker, RandomizedPromotionRanker, Ranker
from repro.utils.validation import check_probability

VALID_RULES = ("none", "uniform", "selective")


@dataclass(frozen=True)
class RankPromotionPolicy:
    """Declarative configuration of a randomized rank promotion scheme.

    Attributes:
        rule: ``"none"``, ``"uniform"`` or ``"selective"``.
        k: starting point; ranks better than ``k`` are never displaced.
        r: degree of randomization.
    """

    rule: str = "selective"
    k: int = 1
    r: float = 0.1

    def __post_init__(self) -> None:
        if self.rule not in VALID_RULES:
            raise ValueError("rule must be one of %s, got %r" % (VALID_RULES, self.rule))
        if self.k < 1:
            raise ValueError("k must be >= 1, got %d" % self.k)
        check_probability("r", self.r)

    @property
    def is_deterministic(self) -> bool:
        """True when the policy reduces to pure popularity ranking."""
        return self.rule == "none" or self.r == 0.0

    def build_ranker(self) -> Ranker:
        """Instantiate the concrete ranker implementing this policy."""
        if self.is_deterministic:
            return PopularityRanker()
        if self.rule == "uniform":
            return RandomizedPromotionRanker(UniformPromotionRule(self.r), k=self.k, r=self.r)
        return RandomizedPromotionRanker(SelectivePromotionRule(), k=self.k, r=self.r)

    def describe(self) -> str:
        """Short description used in experiment reports."""
        if self.is_deterministic:
            return "No randomization"
        return "%s promotion (k=%d, r=%.2f)" % (self.rule.capitalize(), self.k, self.r)


#: The paper's recommendation: selective promotion, 10% randomization, k = 1.
RECOMMENDED_POLICY = RankPromotionPolicy(rule="selective", k=1, r=0.1)

#: Variant preserving the "feeling lucky" top result.
RECOMMENDED_POLICY_SAFE_TOP = RankPromotionPolicy(rule="selective", k=2, r=0.1)

#: Pure popularity ranking, for baselines.
DETERMINISTIC_POLICY = RankPromotionPolicy(rule="none", k=1, r=0.0)

__all__ = [
    "RankPromotionPolicy",
    "RECOMMENDED_POLICY",
    "RECOMMENDED_POLICY_SAFE_TOP",
    "DETERMINISTIC_POLICY",
    "VALID_RULES",
]
