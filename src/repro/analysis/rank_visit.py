"""Popularity-to-rank and rank-to-visit relationships (Section 5.3).

The expected visit rate of a page of popularity ``x`` factors as
``F(x) = F2(F1(x))`` where:

* ``F2(rank) = theta * rank**(-3/2)`` is the rank-to-visit power law
  (Equation 4) with ``theta`` chosen so total monitored visits equal ``v``;
* ``F1(x)`` is the expected rank of a page of popularity ``x`` — one plus
  the expected number of pages whose popularity exceeds ``x`` (Equation 5),
  computed from the steady-state awareness distribution of every quality
  group in the community;
* under selective randomized promotion the rank is shifted down by the
  expected number of promoted pages inserted above it,
  ``F1'(x) = F1(x) + min(r (F1(x) - k + 1) / (1 - r), z)`` where ``z`` is the
  expected number of zero-awareness pages;
* the visit rate of a zero-awareness page (popularity 0) is computed
  directly from the expected visits landing in promotion slots, via a fluid
  walk over the merged result list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class RankToVisitLaw:
    """The paper's ``F2``: visits per day of the page at a given rank.

    ``theta`` normalizes so that summing over all ``n`` ranks yields
    ``total_visits`` per day.
    """

    n_pages: int
    total_visits: float
    exponent: float = 1.5

    def __post_init__(self) -> None:
        check_positive_int("n_pages", self.n_pages)
        check_positive("total_visits", self.total_visits)
        check_positive("exponent", self.exponent)

    @property
    def theta(self) -> float:
        """Normalization constant ``theta = v / sum_i i**(-exponent)``."""
        ranks = np.arange(1, self.n_pages + 1, dtype=float)
        return self.total_visits / float(np.sum(ranks ** (-self.exponent)))

    def __call__(self, rank) -> np.ndarray:
        """Evaluate ``F2`` at (possibly fractional) rank positions >= 1."""
        rank = np.asarray(rank, dtype=float)
        clipped = np.clip(rank, 1.0, float(self.n_pages))
        return self.theta * clipped ** (-self.exponent)

    def visits_by_rank(self) -> np.ndarray:
        """Expected visits for every integer rank ``1..n``."""
        return self(np.arange(1, self.n_pages + 1, dtype=float))


def popularity_to_rank(
    x_values: np.ndarray,
    quality_values: np.ndarray,
    quality_counts: np.ndarray,
    awareness_distributions: Dict[float, np.ndarray],
) -> np.ndarray:
    """Expected rank ``F1(x)`` under non-randomized ranking (Equation 5).

    ``F1(x)`` is one plus the expected number of pages whose popularity
    exceeds ``x``.  A page of quality ``q`` exceeds popularity ``x`` when its
    awareness exceeds ``x / q``; the probability of that event is the tail
    mass of the steady-state awareness distribution above level
    ``floor(m x / q)``.

    Args:
        x_values: popularity values at which to evaluate ``F1``.
        quality_values: distinct quality levels present in the community.
        quality_counts: number of pages at each quality level.
        awareness_distributions: mapping from quality level to its
            ``f(a_i | q)`` vector of length ``m + 1``.
    """
    x_values = np.asarray(x_values, dtype=float)
    quality_values = np.asarray(quality_values, dtype=float)
    quality_counts = np.asarray(quality_counts, dtype=float)
    if quality_values.shape != quality_counts.shape:
        raise ValueError("quality_values and quality_counts must align")

    sample = next(iter(awareness_distributions.values()))
    m = sample.size - 1
    ranks = np.ones_like(x_values)
    for q, count in zip(quality_values, quality_counts, strict=True):
        f = awareness_distributions[float(q)]
        # Suffix sums: tail[j] = P(awareness >= j / m).
        tail = np.concatenate([np.cumsum(f[::-1])[::-1], [0.0]])
        # A page of quality q surpasses popularity x when i > m * x / q.
        first_exceeding = np.floor(m * x_values / q).astype(int) + 1
        first_exceeding = np.clip(first_exceeding, 0, m + 1)
        ranks += count * tail[first_exceeding]
    return ranks


def selective_rank_shift(
    base_rank: np.ndarray, k: int, r: float, expected_zero_awareness: float
) -> np.ndarray:
    """Apply the paper's selective-promotion rank shift ``F1'`` for ``x > 0``.

    Ranks better than ``k`` are unaffected; deeper ranks are pushed down by
    the promoted pages inserted above them, capped at the expected size of
    the promotion pool ``z``.
    """
    base_rank = np.asarray(base_rank, dtype=float)
    if r >= 1.0:
        raise ValueError("selective rank shift requires r < 1")
    shift = np.minimum(r * (base_rank - k + 1) / (1.0 - r), expected_zero_awareness)
    shift = np.clip(shift, 0.0, None)
    return np.where(base_rank < k, base_rank, base_rank + shift)


def expected_promoted_visit_rate(
    law: RankToVisitLaw, pool_size: float, k: int, r: float
) -> float:
    """Expected visits per day of a page in the promotion pool.

    A fluid walk over the merged result list: starting below the protected
    prefix, each slot takes mass ``r`` from the (shuffled) promotion list
    and ``1 - r`` from the deterministic list until one of them drains.  The
    promotion pool holds ``pool_size`` pages in expectation, all equally
    likely to occupy any promotion slot, so the per-page rate is the total
    visit mass landing in promotion slots divided by ``pool_size``.
    """
    if pool_size <= 0:
        return 0.0
    if not 0 < r <= 1:
        return 0.0
    n = law.n_pages
    visits = law.visits_by_rank()
    protected = min(k - 1, n)
    remaining_promoted = float(pool_size)
    remaining_deterministic = float(n - pool_size - protected)
    total_to_promoted = 0.0
    position = protected  # zero-based slot index; slot i has rank i + 1
    while position < n and remaining_promoted > 1e-12:
        if remaining_deterministic <= 1e-12:
            take = min(1.0, remaining_promoted)
        else:
            take = min(r, remaining_promoted)
        total_to_promoted += take * visits[position]
        remaining_promoted -= take
        remaining_deterministic -= max(0.0, 1.0 - take)
        position += 1
    return total_to_promoted / float(pool_size)


def uniform_rank_adjustment(
    base_rank: np.ndarray,
    law: RankToVisitLaw,
    k: int,
    r: float,
) -> np.ndarray:
    """Expected visit rate under *uniform* promotion for pages of popularity > 0.

    The paper omits the (complex) closed form; we use the natural
    approximation.  A page is promoted with probability ``r`` — in that case
    it receives the average promotion-slot visit rate — and with probability
    ``1 - r`` it stays in the deterministic list, where its rank within
    ``L_d`` shrinks to ``(1 - r)`` of the pages above it but the merge pushes
    its final slot back down by the interleaved promotion slots.  Those two
    effects cancel to first order below the protected prefix, so the
    deterministic branch keeps its base rank.

    Returns expected *visits*, not ranks, because the two branches must be
    averaged in visit space.
    """
    base_rank = np.asarray(base_rank, dtype=float)
    pool_size = r * law.n_pages
    promoted_rate = expected_promoted_visit_rate(law, pool_size, k, r)
    deterministic_rate = law(base_rank)
    return (1.0 - r) * deterministic_rate + r * promoted_rate


__all__ = [
    "RankToVisitLaw",
    "popularity_to_rank",
    "selective_rank_shift",
    "expected_promoted_visit_rate",
    "uniform_rank_adjustment",
]
