"""Fixture: per-call state stored on shared batch hooks, which the rule flags."""

import numpy as np


class CachingRanker:
    def rank_batch(self, context, rngs):
        self.last_context = context  # attribute store
        self.calls += 1  # augmented store
        order = np.argsort(-context.popularity, axis=1)
        self.orders[0] = order  # subscript store
        return order


class CountingRule:
    def select_batch(self, context, rngs):
        self.seen: int = len(rngs)  # annotated store
        setattr(self, "mask", context.awareness == 0)  # setattr on self
        return self.mask


class ScratchLifecycle:
    def step_batch(self, pool, rngs, now):
        for self.row in range(len(rngs)):  # loop target stored on self
            pass
        object.__setattr__(self, "now", now)  # frozen-dataclass bypass
        del self.scratch  # deletion is a store too
