"""Fixture: batch hooks that keep per-call state in locals."""

import numpy as np


class StatelessRanker:
    def __init__(self, k):
        self.k = k  # construction may set state; only the batch hooks may not

    def rank_batch(self, context, rngs):
        order = np.argsort(-context.popularity, axis=1)
        order[:, : self.k] = order[:, : self.k]  # stores into a local array
        return order

    def rank(self, context, rng):
        self.last = context  # not a batch hook: out of the rule's reach
        return self.rank_batch(context, [rng])[0]


class LocalStateRule:
    def select_batch(self, context, rngs):
        mask = context.awareness == 0
        context.cache = mask  # a store into the caller's object, not self
        setattr(context, "mask", mask)
        return mask
