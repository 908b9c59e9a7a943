"""Random number generation helpers.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` (fresh entropy).  Funnelling the
conversion through :func:`as_rng` keeps experiments reproducible: the
experiment drivers pass a single seed and spawn independent child generators
for each repetition with :func:`spawn_rngs`.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

RandomSource = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(source: RandomSource = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``source``.

    ``None`` produces a generator seeded from OS entropy, an ``int`` or a
    :class:`~numpy.random.SeedSequence` produces a deterministic generator,
    and an existing generator is returned unchanged.
    """
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, np.random.SeedSequence):
        return np.random.default_rng(source)
    return np.random.default_rng(source)


def spawn_rngs(source: RandomSource, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` statistically independent generators from ``source``.

    The children are derived through :class:`numpy.random.SeedSequence`
    spawning, so repeated calls with the same integer seed give the same
    family of streams regardless of how many draws each child performs.
    """
    if count < 0:
        raise ValueError("count must be non-negative, got %d" % count)
    if isinstance(source, np.random.SeedSequence):
        seq = source
    elif isinstance(source, np.random.Generator):
        # Derive children from the generator itself; reproducible as long as
        # the generator state is reproducible at the call site.
        return [np.random.default_rng(source.integers(0, 2**63 - 1)) for _ in range(count)]
    else:
        seq = np.random.SeedSequence(source)
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def derive_seed(source: RandomSource, label: str) -> int:
    """Derive a deterministic integer seed from ``source`` and a text label.

    Used when a sub-experiment needs a stable seed that does not collide with
    sibling sub-experiments sharing the same root seed.
    """
    base = 0 if source is None else (source if isinstance(source, int) else 0)
    digest = np.uint64(base & 0xFFFFFFFFFFFFFFFF)
    for ch in label:
        digest = np.uint64((int(digest) * 1099511628211 + ord(ch)) & 0xFFFFFFFFFFFFFFFF)
    return int(digest & 0x7FFFFFFF)


__all__ = ["RandomSource", "as_rng", "spawn_rngs", "derive_seed"]
