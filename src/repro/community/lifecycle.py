"""Page birth/death processes.

The paper models page retirement as a Poisson process with rate ``lambda``
per page, so the expected lifetime is ``l = 1 / lambda``; a retired page is
immediately replaced by a fresh page of the same quality with zero awareness,
keeping both the community size and the quality distribution stationary
(Section 5.1).  The live study instead used fixed 30-day lifetimes, so a
fixed-lifetime process is provided as well.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.community.page import BatchPagePool, PagePool
from repro.utils.rng import RandomSource, as_rng
from repro.utils.validation import check_positive


class Lifecycle(abc.ABC):
    """Abstract page replacement process applied once per simulated day."""

    @abc.abstractmethod
    def step(self, pool: PagePool, now: float, rng: RandomSource = None) -> np.ndarray:
        """Retire/replace pages for one time step; return indices replaced."""

    def step_batch(
        self,
        pool: BatchPagePool,
        now: float,
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        """Apply one step to every replicate of a batch pool.

        Row ``r`` must behave exactly like ``self.step(row_pool, now,
        rngs[r])``, drawing from ``rngs[r]`` identically.  The default
        routes each row through :meth:`step` on a row view so custom
        lifecycles stay compatible; built-in processes vectorize the
        per-page draws/comparisons across rows.  Replicate blocks of the
        batch engine call one lifecycle from several threads at once, each
        with its own rows of ``pool``, so a lifecycle must keep no per-call
        state on itself; run a stateful one with ``n_workers=1``.
        """
        replaced = []
        for row in range(pool.replicates):
            row_pool = pool.row_pool(row)
            replaced.append(self.step(row_pool, now, rngs[row]))
            pool.sync_row_pool(row, row_pool)
        return replaced

    @abc.abstractmethod
    def expected_lifetime(self) -> float:
        """Expected page lifetime in days."""


@dataclass
class PoissonLifecycle(Lifecycle):
    """Memoryless retirement: each page dies each day with probability ``1 - exp(-lambda)``.

    ``rate_per_day`` is the paper's ``lambda``.  Using the exact exponential
    survival probability (rather than ``lambda`` itself) keeps the process
    well defined even for lifetimes shorter than one day.
    """

    rate_per_day: float

    def __post_init__(self) -> None:
        check_positive("rate_per_day", self.rate_per_day)

    def step(self, pool: PagePool, now: float, rng: RandomSource = None) -> np.ndarray:
        generator = as_rng(rng)
        death_probability = 1.0 - np.exp(-self.rate_per_day)
        dying = np.flatnonzero(generator.random(pool.n) < death_probability)
        return pool.replace_pages(dying, now)

    def step_batch(
        self,
        pool: BatchPagePool,
        now: float,
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        death_probability = 1.0 - np.exp(-self.rate_per_day)
        draws = np.empty((pool.replicates, pool.n), dtype=float)
        for row in range(pool.replicates):
            as_rng(rngs[row]).random(out=draws[row])
        dying = draws < death_probability
        return [
            pool.replace_row_pages(row, np.flatnonzero(dying[row]), now)
            for row in range(pool.replicates)
        ]

    def expected_lifetime(self) -> float:
        return 1.0 / self.rate_per_day

    @classmethod
    def from_lifetime(cls, expected_lifetime_days: float) -> "PoissonLifecycle":
        """Build the process from the expected lifetime ``l`` (days)."""
        check_positive("expected_lifetime_days", expected_lifetime_days)
        return cls(rate_per_day=1.0 / expected_lifetime_days)


@dataclass
class FixedLifetimeLifecycle(Lifecycle):
    """Deterministic lifetimes, as used for the live-study item rotation.

    Each page lives exactly ``lifetime_days`` days from its creation time and
    is then replaced.  Initial pages can be given staggered ages elsewhere to
    emulate the live study's uniformly random initial lifetimes.
    """

    lifetime_days: float

    def __post_init__(self) -> None:
        check_positive("lifetime_days", self.lifetime_days)

    def step(self, pool: PagePool, now: float, rng: RandomSource = None) -> np.ndarray:
        expired = np.flatnonzero(pool.ages(now) >= self.lifetime_days)
        return pool.replace_pages(expired, now)

    def step_batch(
        self,
        pool: BatchPagePool,
        now: float,
        rngs: Sequence[np.random.Generator],
    ) -> List[np.ndarray]:
        expired = pool.ages(now) >= self.lifetime_days
        return [
            pool.replace_row_pages(row, np.flatnonzero(expired[row]), now)
            for row in range(pool.replicates)
        ]

    def expected_lifetime(self) -> float:
        return self.lifetime_days


__all__ = ["Lifecycle", "PoissonLifecycle", "FixedLifetimeLifecycle"]
