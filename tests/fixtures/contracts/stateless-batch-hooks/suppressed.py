"""Fixture: suppressed store into a batch hook's self, with rationale."""


class LockedCounter:
    def step_batch(self, pool, rngs, now):
        with self.lock:
            # contracts: ignore[stateless-batch-hooks] -- fixture: the counter is guarded by self.lock
            self.steps += 1
        return pool
