"""Ranking methods: deterministic popularity ranking, randomized rank
promotion, and the reference rankers used for evaluation.

Every ranker maps a :class:`~repro.core.rankers_context.RankingContext` to a
permutation of page indices (rank 1 first).

Tie-breaking matters much more than it may appear: popularity measured over
``m`` monitored users is heavily discretized, and the thousands of pages tied
at popularity zero would all be buried at the bottom under a fixed order.
The default breaks ties *uniformly at random on every ranking call*, which
matches the analytical model's assumption that a zero-popularity page sits at
the expected rank of its tie group and models the measurement noise a real
popularity signal would have.  The live study's older-pages-first rule is
available as ``tie_breaker="age"``, and a fully deterministic index order as
``tie_breaker="index"``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.kernels import TIE_BREAKERS, check_tie_breaker, get_backend
from repro.core.merge import randomized_merge
from repro.core.promotion import NoPromotionRule, PromotionRule, SelectivePromotionRule
from repro.core.rankers_context import BatchRankingContext, RankingContext
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_probability


class Ranker(abc.ABC):
    """A search-result ranking method."""

    @abc.abstractmethod
    def rank(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        """Return page indices ordered from rank 1 to rank ``n``."""

    def rank_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Rank ``R`` replicate communities at once; returns ``(R, n)`` orders.

        Row ``r`` must equal ``self.rank(context.row(r), rngs[r])`` bit for
        bit, consuming ``rngs[r]`` exactly as the sequential call would.
        This default implementation does precisely that, one row at a time,
        so any custom :class:`Ranker` works with the batch engine unchanged;
        the built-in rankers override it with vectorized kernels.

        The batch engine calls one ranker from several threads at once, one
        per replicate block, so a ranker must keep no per-call state on
        itself (the built-in ones are frozen); run a stateful one with
        ``n_workers=1``.
        """
        rows: List[np.ndarray] = [
            self.rank(context.row(row), rngs[row])
            for row in range(context.replicates)
        ]
        return np.asarray(rows, dtype=np.intp)

    @property
    def is_randomized(self) -> bool:
        """Whether repeated calls with the same context can return different lists."""
        return False

    def describe(self) -> str:
        """Short description used in experiment reports."""
        return type(self).__name__


def _deterministic_order(
    scores: np.ndarray,
    ages: Optional[np.ndarray],
    tie_breaker: str = "random",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sort descending by score with the requested tie-breaking rule.

    ``numpy.lexsort`` sorts ascending by the last key first, so keys are
    negated where a descending order is wanted.

    The random tie-breaker requires the caller's generator: every ranking
    call sits inside a seeded simulation or serving stream, and silently
    falling back to fresh entropy here would make seed-equal runs diverge.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if tie_breaker == "random":
        if rng is None:
            raise ValueError(
                "tie_breaker='random' requires the caller's random generator; "
                "pass rng explicitly (e.g. via repro.utils.rng.as_rng)"
            )
        tie_key = rng.random(n)
        return np.lexsort((tie_key, -scores))
    if tie_breaker == "age":
        ages = np.zeros(n) if ages is None else np.asarray(ages, dtype=float)
        return np.lexsort((np.arange(n), -ages, -scores))
    if tie_breaker == "index":
        return np.lexsort((np.arange(n), -scores))
    raise ValueError("tie_breaker must be one of %s, got %r" % (TIE_BREAKERS, tie_breaker))


@dataclass(frozen=True)
class PopularityRanker(Ranker):
    """Non-randomized ranking: strictly descending popularity.

    This is the paper's baseline ("no randomization"): the ranking a
    popularity-driven search engine produces when it never explores.
    """

    tie_breaker: str = "random"

    def __post_init__(self) -> None:
        check_tie_breaker(self.tie_breaker)

    @property
    def is_randomized(self) -> bool:
        return self.tie_breaker == "random"

    def rank(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        return _deterministic_order(
            context.popularity, context.ages, self.tie_breaker, as_rng(rng)
        )

    def rank_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        ages = context.ages if self.tie_breaker == "age" else None
        return get_backend().rank_day(
            context.popularity, ages, self.tie_breaker, rngs
        )

    def describe(self) -> str:
        return "No randomization"


@dataclass(frozen=True)
class RandomizedPromotionRanker(Ranker):
    """Randomized rank promotion (the paper's proposal, Section 4).

    A promotion rule selects the pool ``P_p``; the pool is shuffled and
    merged into the deterministic popularity ranking using the starting
    point ``k`` and degree of randomization ``r``.
    """

    promotion_rule: PromotionRule = field(default_factory=SelectivePromotionRule)
    k: int = 1
    r: float = 0.1
    tie_breaker: str = "random"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1, got %d" % self.k)
        check_probability("r", self.r)
        check_tie_breaker(self.tie_breaker)

    @property
    def is_randomized(self) -> bool:
        return True

    def rank(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        generator = as_rng(rng)
        promoted_mask = np.asarray(self.promotion_rule.select(context, generator), dtype=bool)
        if promoted_mask.shape != (context.n,):
            raise ValueError("promotion rule returned a mask of the wrong shape")
        order = _deterministic_order(
            context.popularity, context.ages, self.tie_breaker, generator
        )
        deterministic = order[~promoted_mask[order]]
        promoted = order[promoted_mask[order]]
        if promoted.size == 0 or self.r == 0.0:
            return order
        return randomized_merge(deterministic, promoted, self.k, self.r, generator)

    def rank_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        promoted_mask = np.asarray(
            self.promotion_rule.select_batch(context, rngs), dtype=bool
        )
        if promoted_mask.shape != context.popularity.shape:
            raise ValueError("promotion rule returned a mask of the wrong shape")
        ages = context.ages if self.tie_breaker == "age" else None
        backend = get_backend()
        orders = backend.rank_day(context.popularity, ages, self.tie_breaker, rngs)
        if self.r == 0.0:
            return orders
        return backend.promotion_merge(orders, promoted_mask, self.k, self.r, rngs)

    def describe(self) -> str:
        return "Randomized(%s, k=%d, r=%.2f)" % (
            self.promotion_rule.describe(), self.k, self.r,
        )


def selective_ranker(r: float = 0.1, k: int = 1) -> RandomizedPromotionRanker:
    """Convenience constructor for selective randomized rank promotion."""
    return RandomizedPromotionRanker(SelectivePromotionRule(), k=k, r=r)


def uniform_ranker(r: float = 0.1, k: int = 1) -> RandomizedPromotionRanker:
    """Convenience constructor for uniform randomized rank promotion.

    Following the paper, the per-page promotion probability equals the merge
    bias ``r``.
    """
    from repro.core.promotion import UniformPromotionRule

    return RandomizedPromotionRanker(UniformPromotionRule(r), k=k, r=r)


@dataclass(frozen=True)
class QualityOracleRanker(Ranker):
    """Ranks by intrinsic quality — the unattainable ideal used to normalize QPC."""

    def rank(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        if context.quality is None:
            raise ValueError("QualityOracleRanker requires quality in the context")
        return _deterministic_order(context.quality, context.ages, "index")

    def rank_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        if context.quality is None:
            raise ValueError("QualityOracleRanker requires quality in the context")
        return get_backend().rank_day(context.quality, None, "index", rngs)

    def describe(self) -> str:
        return "Quality oracle"


@dataclass(frozen=True)
class RandomRanker(Ranker):
    """Fully random ranking — the other extreme of the exploration spectrum."""

    @property
    def is_randomized(self) -> bool:
        return True

    def rank(self, context: RankingContext, rng: RandomSource = None) -> np.ndarray:
        return as_rng(rng).permutation(context.n)

    def rank_batch(
        self,
        context: BatchRankingContext,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        n = context.n
        return np.asarray(
            [as_rng(rng).permutation(n) for rng in rngs], dtype=np.intp
        )

    def describe(self) -> str:
        return "Fully random"


@dataclass(frozen=True)
class NoPromotionRanker(RandomizedPromotionRanker):
    """Randomized ranker configured with an empty pool; behaves deterministically.

    Useful in sweeps over ``r`` where ``r = 0`` should fall back to the
    non-randomized baseline through the exact same code path.
    """

    promotion_rule: PromotionRule = field(default_factory=NoPromotionRule)
    r: float = 0.0


__all__ = [
    "Ranker",
    "RankingContext",
    "PopularityRanker",
    "RandomizedPromotionRanker",
    "QualityOracleRanker",
    "RandomRanker",
    "NoPromotionRanker",
    "selective_ranker",
    "uniform_ranker",
]
