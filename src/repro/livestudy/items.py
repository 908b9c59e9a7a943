"""Joke/quotation item pool for the live-study replication."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.community.quality import PowerLawQualityDistribution
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive


def funniness_distribution(n_items: int, rng: RandomSource = None) -> np.ndarray:
    """Sample item funniness values shaped like the paper's item pool.

    The paper downsampled its joke collection to match the PageRank power law
    of Cho & Roy and supplemented it with (deliberately non-funny) quotations
    to populate the long tail: a small head of genuinely funny jokes and a
    large tail of items almost nobody votes funny.  We use a ranked power law
    with that shape.  The head is calibrated so the resulting funny-vote
    ratios land in the range the paper reports in Figure 1 (roughly 0.25
    without promotion and 0.4 with it): the funniest item draws a "funny"
    vote from most visitors, and a few dozen items are moderately funny,
    while the bulk of the pool (the quotations) almost never does.
    """
    return PowerLawQualityDistribution(
        q_max=0.85, exponent=0.75, q_min=0.02
    ).sample(n_items, rng)


@dataclass
class ItemPool:
    """The rotating pool of joke/quotation items shown to one user group.

    Each item tracks its funniness (the probability a visiting user votes
    "funny"), its popularity (count of funny votes, the ranking signal used
    by the study), the set-size of users who have seen it, its creation day
    and its fixed lifetime.
    """

    funniness: np.ndarray
    lifetime_days: float = 30.0
    initial_age_span: float = 30.0

    def __post_init__(self) -> None:
        self.funniness = np.asarray(self.funniness, dtype=float)
        if self.funniness.ndim != 1 or self.funniness.size == 0:
            raise ValueError("funniness must be a non-empty 1-D array")
        check_positive("lifetime_days", self.lifetime_days)
        self.n = self.funniness.size
        self.funny_votes = np.zeros(self.n, dtype=float)
        self.total_votes = np.zeros(self.n, dtype=float)
        self.seen = np.zeros(self.n, dtype=float)
        self.created_at = np.zeros(self.n, dtype=float)

    def stagger_initial_ages(self, rng: RandomSource = None) -> None:
        """Give the initial items uniformly random remaining lifetimes.

        Mirrors the study: lifetimes of the initial items were drawn from
        ``[1, 30]`` days so the pool is already in a rotation steady state
        when the experiment starts.
        """
        generator = as_rng(rng)
        self.created_at = -generator.uniform(0.0, self.initial_age_span, size=self.n)

    def zero_awareness_mask(self) -> np.ndarray:
        """Items no user of this group has viewed yet."""
        return self.seen <= 0

    def record_visit(self, item: int, vote_probability_scale: float, rng) -> bool:
        """Record a visit; returns True if the user cast a 'funny' vote.

        Every visitor casts a vote (funny / neutral / not funny); only the
        "funny" votes feed the popularity signal, exactly as in the study.
        """
        self.seen[item] += 1
        self.total_votes[item] += 1
        is_funny = rng.random() < self.funniness[item] * vote_probability_scale
        if is_funny:
            self.funny_votes[item] += 1
        return bool(is_funny)

    def rotate(self, now: float) -> np.ndarray:
        """Replace expired items with fresh equal-funniness items."""
        expired = np.flatnonzero(now - self.created_at >= self.lifetime_days)
        if expired.size:
            self.funny_votes[expired] = 0.0
            self.total_votes[expired] = 0.0
            self.seen[expired] = 0.0
            self.created_at[expired] = now
        return expired

    def popularity_order(self, rng) -> np.ndarray:
        """Items in descending order of funny votes, older items first on ties."""
        ages = -self.created_at
        return np.lexsort((rng.random(self.n), -ages, -self.funny_votes))


__all__ = ["ItemPool", "funniness_distribution"]
