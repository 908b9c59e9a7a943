"""The two-group live-study experiment (Appendix A / Figure 1).

Two identical item pools are shown to two independently simulated user
groups.  The control group sees items strictly ordered by funny-vote count;
the treatment group sees the same deterministic order except that all items
nobody in the group has viewed yet are inserted, in a fresh random order per
user, starting at rank position 21 (the paper's "selective promotion with
k = 21 and r = 1").  The reported metric is the ratio of funny votes to
total votes over the final portion of the study, by which time the original
items have rotated out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.merge import randomized_merge
from repro.livestudy.items import ItemPool, funniness_distribution
from repro.utils.rng import RandomSource, spawn_rngs
from repro.utils.validation import check_positive, check_positive_int
from repro.visits.attention import PowerLawAttention


@dataclass(frozen=True)
class LiveStudyConfig:
    """Parameters of the live-study replication (defaults match the paper).

    Attributes:
        n_items: size of the rotating item pool.
        n_users: number of participants (split over the two groups).
        study_days: total length of the study.
        measure_last_days: length of the final window used for the vote-ratio
            metric (original items have expired by then).
        item_lifetime_days: fixed lifetime of each item.
        visits_per_user_per_day: how many items an average participant views
            per day.  The default of one view per participant per day puts
            the simulated vote volume in the regime where the control group's
            funny-vote ratio and the treatment improvement both land near the
            values the paper reports for its 962 volunteers (Figure 1).
        promotion_start_rank: the ``k`` of the treatment group's promotion
            (new items are inserted starting at this rank position).
        attention_exponent: rank-bias exponent of simulated participants; the
            paper measured -3/2 from its own logs.
    """

    n_items: int = 1000
    n_users: int = 962
    study_days: int = 45
    measure_last_days: int = 15
    item_lifetime_days: float = 30.0
    visits_per_user_per_day: float = 1.0
    promotion_start_rank: int = 21
    attention_exponent: float = 1.5

    def __post_init__(self) -> None:
        check_positive_int("n_items", self.n_items)
        check_positive_int("n_users", self.n_users)
        check_positive_int("study_days", self.study_days)
        check_positive_int("measure_last_days", self.measure_last_days)
        if self.measure_last_days > self.study_days:
            raise ValueError("measure_last_days cannot exceed study_days")
        check_positive("item_lifetime_days", self.item_lifetime_days)
        check_positive("visits_per_user_per_day", self.visits_per_user_per_day)
        check_positive_int("promotion_start_rank", self.promotion_start_rank)


@dataclass
class GroupOutcome:
    """Vote tallies for one user group over the measurement window."""

    funny_votes: float = 0.0
    total_votes: float = 0.0

    @property
    def funny_ratio(self) -> float:
        """Ratio of funny votes to total votes (the Figure 1 metric)."""
        if self.total_votes <= 0:
            return 0.0
        return self.funny_votes / self.total_votes


@dataclass
class LiveStudyResult:
    """Outcome of the two-group study."""

    control: GroupOutcome
    treatment: GroupOutcome

    @property
    def improvement(self) -> float:
        """Relative improvement of the treatment group's funny ratio."""
        if self.control.funny_ratio <= 0:
            return float("inf") if self.treatment.funny_ratio > 0 else 0.0
        return self.treatment.funny_ratio / self.control.funny_ratio - 1.0

    def summary(self) -> str:
        """One-line Figure 1 style summary."""
        return (
            "funny-vote ratio: without promotion %.4f, with promotion %.4f "
            "(improvement %.0f%%)"
            % (
                self.control.funny_ratio,
                self.treatment.funny_ratio,
                100.0 * self.improvement,
            )
        )


class LiveStudyExperiment:
    """Runs the simulated two-group study."""

    def __init__(self, config: Optional[LiveStudyConfig] = None, seed: RandomSource = None) -> None:
        self.config = config or LiveStudyConfig()
        self._seed = seed

    def run(self) -> LiveStudyResult:
        """Simulate both groups on identical item pools and report vote ratios."""
        config = self.config
        item_rng, control_rng, treatment_rng = spawn_rngs(self._seed, 3)
        funniness = funniness_distribution(config.n_items, item_rng)

        control = self._run_group(funniness, promote=False, rng=control_rng)
        treatment = self._run_group(funniness, promote=True, rng=treatment_rng)
        return LiveStudyResult(control=control, treatment=treatment)

    # ------------------------------------------------------------ internals

    def _run_group(self, funniness: np.ndarray, promote: bool, rng) -> GroupOutcome:
        config = self.config
        pool = ItemPool(funniness.copy(), lifetime_days=config.item_lifetime_days)
        pool.stagger_initial_ages(rng)
        attention = PowerLawAttention(config.attention_exponent)
        shares = attention.visit_shares(config.n_items)
        group_users = max(1, config.n_users // 2)
        daily_visits = int(round(group_users * config.visits_per_user_per_day))
        measure_start = config.study_days - config.measure_last_days
        outcome = GroupOutcome()

        for day in range(config.study_days):
            pool.rotate(now=float(day))
            order = pool.popularity_order(rng)
            if promote:
                order = self._promote_unseen(pool, order, rng)
            visited_ranks = rng.choice(config.n_items, size=daily_visits, p=shares)
            items = order[visited_ranks]
            measuring = day >= measure_start
            for item in items:
                is_funny = pool.record_visit(int(item), 1.0, rng)
                if measuring:
                    outcome.total_votes += 1
                    outcome.funny_votes += 1 if is_funny else 0
        return outcome

    def _promote_unseen(self, pool: ItemPool, order: np.ndarray, rng) -> np.ndarray:
        """Insert all unseen items in random order starting below rank k - 1.

        This is exactly selective promotion with ``k = promotion_start_rank``
        and ``r = 1``: the top ``k - 1`` popularity-ranked items stay put and
        the entire unseen pool follows immediately after, freshly shuffled.
        """
        unseen = pool.zero_awareness_mask()
        promoted = order[unseen[order]]
        deterministic = order[~unseen[order]]
        if promoted.size == 0:
            return order
        return randomized_merge(
            deterministic,
            promoted,
            k=self.config.promotion_start_rank,
            r=1.0,
            rng=rng,
        )


__all__ = ["LiveStudyConfig", "LiveStudyExperiment", "LiveStudyResult", "GroupOutcome"]
