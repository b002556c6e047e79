"""RANDOM baseline (Sec. 5.3).

Samples uniformly from the configuration lattice, with the paper's two
intelligence rules: a candidate is skipped without evaluation when

* a previously evaluated configuration with component-wise *greater-or-
  equal* counts failed the QoS (the candidate has strictly less capacity in
  every dimension, so it must fail too), or
* a previously evaluated configuration with component-wise *less-or-equal*
  counts met the QoS (the candidate can only match that outcome at a higher
  price, so it cannot become the new optimum).

Both rules live in one boolean mask over the lattice: each evaluation ORs
its dominated box into the mask once, and the sweep reads one entry per
candidate instead of rescanning every earlier observation.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.strategy import Budget, SearchStrategy
from repro.simulator.pool import PoolConfiguration


class RandomSearch(SearchStrategy):
    """Dominance-aware random sampling."""

    name = "RANDOM"

    def __init__(self, max_samples: int = 100, seed: int = 0):
        super().__init__(max_samples=max_samples, seed=seed)

    def _run(
        self,
        evaluator: ConfigurationEvaluator,
        budget: Budget,
        start: PoolConfiguration | None,
    ) -> None:
        space = evaluator.space
        rng = np.random.default_rng(self.seed)
        grid = space.grid()
        order = rng.permutation(grid.shape[0])
        dominated = np.zeros(grid.shape[0], dtype=bool)

        if start is not None and space.contains(start):
            self._observe(budget, start, grid, dominated)

        for idx in order:
            if budget.exhausted:
                return
            # Every sampled cell masks itself, so a clear cell is unseen.
            if not dominated[idx]:
                self._observe(budget, space.pool(grid[idx]), grid, dominated)

        budget.stopped = True  # exhausted the (non-skipped) space

    @staticmethod
    def _observe(
        budget: Budget,
        pool: PoolConfiguration,
        grid: np.ndarray,
        dominated: np.ndarray,
    ) -> None:
        """Evaluate ``pool`` and OR the box it dominates into ``dominated``."""
        rec = budget.evaluate(pool)
        if rec is None:
            return
        vec = np.asarray(pool.counts, dtype=np.int64)
        if rec.meets_qos:
            dominated |= np.all(vec <= grid, axis=1)
        else:
            dominated |= np.all(grid <= vec, axis=1)
