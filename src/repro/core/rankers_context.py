"""The snapshot of community state a ranker sees when producing a result list.

Kept in its own module (rather than inside ``rankers``) so that promotion
rules can depend on it without importing the ranker hierarchy, avoiding an
import cycle between ``repro.core.promotion`` and ``repro.core.rankers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class RankingContext:
    """Everything a ranking method may consult about the current state.

    Attributes:
        popularity: per-page popularity ``P(p, t) = A(p, t) * Q(p)`` — the
            signal the search engine actually measures.
        awareness: per-page awareness among monitored users, used by the
            selective promotion rule.
        quality: per-page intrinsic quality; only the oracle ranker may use
            it (a real engine cannot observe quality directly).
        ages: per-page age in days, used by tie-breaking and by the
            age-based baselines; optional.
        popularity_history: optional ``(history_length, n)`` array of recent
            popularity snapshots, newest last, used by the derivative
            forecasting baseline.
        monitored_population: number of monitored users ``m``; lets promotion
            rules reason about awareness in units of users (needed so the
            selective rule keeps its meaning under fluid, fractional
            awareness updates).
    """

    popularity: np.ndarray
    awareness: np.ndarray
    quality: Optional[np.ndarray] = None
    ages: Optional[np.ndarray] = None
    popularity_history: Optional[np.ndarray] = None
    monitored_population: Optional[int] = None

    def __post_init__(self) -> None:
        self.popularity = np.asarray(self.popularity, dtype=float)
        self.awareness = np.asarray(self.awareness, dtype=float)
        if self.popularity.shape != self.awareness.shape:
            raise ValueError("popularity and awareness must have the same shape")
        if self.quality is not None:
            self.quality = np.asarray(self.quality, dtype=float)
            if self.quality.shape != self.popularity.shape:
                raise ValueError("quality must have the same shape as popularity")
        if self.ages is not None:
            self.ages = np.asarray(self.ages, dtype=float)
            if self.ages.shape != self.popularity.shape:
                raise ValueError("ages must have the same shape as popularity")

    @property
    def n(self) -> int:
        """Number of pages in the result set."""
        return int(self.popularity.size)

    @classmethod
    def from_pool(cls, pool, now: float = 0.0, popularity_history=None) -> "RankingContext":
        """Build a context from a :class:`~repro.community.PagePool`."""
        return cls(
            popularity=pool.popularity,
            awareness=pool.awareness,
            quality=pool.quality,
            ages=pool.ages(now),
            popularity_history=popularity_history,
            monitored_population=pool.monitored_population,
        )


class BatchRankingContext:
    """Ranking state for ``R`` replicate communities as ``(R, n)`` arrays.

    The batched counterpart of :class:`RankingContext`: every attribute is a
    matrix whose row ``r`` is replicate ``r``'s vector.  Ages are computed
    lazily from creation times because the common promotion rules and the
    random tie-breaker never consult them.

    ``popularity_history`` is, when present, a ``(history_length, R, n)``
    array of recent popularity snapshots (newest last), sliced per row for
    the fallback path.
    """

    def __init__(
        self,
        popularity: np.ndarray,
        awareness: np.ndarray,
        quality: Optional[np.ndarray] = None,
        created_at: Optional[np.ndarray] = None,
        now: float = 0.0,
        popularity_history: Optional[np.ndarray] = None,
        monitored_population: Optional[int] = None,
    ) -> None:
        self.popularity = np.asarray(popularity, dtype=float)
        self.awareness = np.asarray(awareness, dtype=float)
        if self.popularity.ndim != 2 or self.popularity.shape != self.awareness.shape:
            raise ValueError("popularity and awareness must be equal (R, n) matrices")
        self.quality = quality
        self.created_at = created_at
        self.now = float(now)
        self.popularity_history = popularity_history
        self.monitored_population = monitored_population
        self._ages: Optional[np.ndarray] = None

    @property
    def replicates(self) -> int:
        """Number of replicate rows ``R``."""
        return int(self.popularity.shape[0])

    @property
    def n(self) -> int:
        """Number of pages per replicate."""
        return int(self.popularity.shape[1])

    @property
    def ages(self) -> Optional[np.ndarray]:
        """Page ages per replicate, computed on first access."""
        if self._ages is None and self.created_at is not None:
            self._ages = np.maximum(0.0, self.now - self.created_at)
        return self._ages

    def row(self, index: int) -> RankingContext:
        """A per-replicate :class:`RankingContext` view (fallback path)."""
        history = self.popularity_history
        return RankingContext(
            popularity=self.popularity[index],
            awareness=self.awareness[index],
            quality=None if self.quality is None else self.quality[index],
            ages=None if self.ages is None else self.ages[index],
            popularity_history=(
                None if history is None else history[:, index, :]
            ),
            monitored_population=self.monitored_population,
        )

    @classmethod
    def from_batch_pool(
        cls, pool, now: float = 0.0, popularity_history=None
    ) -> "BatchRankingContext":
        """Build a batch context from a :class:`~repro.community.BatchPagePool`."""
        awareness = pool.awareness  # one (R, n) pass, reused for popularity
        return cls(
            popularity=awareness * pool.quality,
            awareness=awareness,
            quality=pool.quality,
            created_at=pool.created_at,
            now=now,
            popularity_history=popularity_history,
            monitored_population=pool.monitored_population,
        )


__all__ = ["RankingContext", "BatchRankingContext"]
