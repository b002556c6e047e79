"""Hill-Climb baseline (Sec. 5.3).

Customized for the diverse-pool problem the way the paper describes:
intelligently increase/decrease per-type counts based on observed QoS and
cost — concretely, greedy ascent on the same combined objective Ribbon
optimizes (higher satisfaction rate while violating; lower cost while
satisfying), over the +-1 neighborhood of the current configuration.  When
no neighbor improves (a local optimum, cf. Fig. 12's (4,3) trap), the climber
restarts from a random unvisited configuration.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import ConfigurationEvaluator, EvaluationRecord
from repro.core.strategy import Budget, SearchStrategy
from repro.simulator.pool import PoolConfiguration


class HillClimb(SearchStrategy):
    """Greedy +-1 neighborhood ascent with random restarts."""

    name = "Hill-Climb"

    def __init__(self, max_samples: int = 100, seed: int = 0, max_restarts: int = 20):
        super().__init__(max_samples=max_samples, seed=seed)
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        self.max_restarts = int(max_restarts)

    def _run(
        self,
        evaluator: ConfigurationEvaluator,
        budget: Budget,
        start: PoolConfiguration | None,
    ) -> None:
        space = evaluator.space
        rng = np.random.default_rng(self.seed)
        bounds = list(space.bounds)

        if start is None:
            mid = tuple(max(1, round(b / 2)) for b in space.bounds)
            start = space.pool(mid)

        restarts = 0
        current = budget.evaluate(start)
        while current is not None and not budget.exhausted:
            improved = self._climb_step(budget, current, bounds)
            if improved is not None:
                current = improved
                continue
            # Local optimum: restart from a random unvisited configuration
            # (the dark-orange restart point of Fig. 12).
            if restarts >= self.max_restarts:
                budget.stopped = True
                break
            restarts += 1
            fresh = self._random_unvisited(space, budget, rng)
            if fresh is None:
                budget.stopped = True
                break
            current = budget.evaluate(fresh)
        budget.metadata["restarts"] = restarts

    def _climb_step(
        self,
        budget: Budget,
        current: EvaluationRecord,
        bounds: list[int],
    ) -> EvaluationRecord | None:
        """Evaluate neighbors until one improves on the current objective.

        Neighbors are probed in a QoS-aware order: capacity-adding moves
        first while violating, cost-cutting moves first while satisfying.
        """
        neighbors = current.pool.neighbors(bounds)
        cheaper_first = current.meets_qos

        def move_cost(pool: PoolConfiguration) -> float:
            return pool.hourly_cost()

        neighbors.sort(key=move_cost, reverse=not cheaper_first)
        best: EvaluationRecord | None = None
        for pool in neighbors:
            if budget.seen(pool):
                continue
            rec = budget.evaluate(pool)
            if rec is None:
                return best
            if rec.objective > current.objective + 1e-12 and (
                best is None or rec.objective > best.objective
            ):
                best = rec
                # Greedy: take the first strictly improving move.
                return best
        return best

    @staticmethod
    def _random_unvisited(
        space, budget: Budget, rng: np.random.Generator
    ) -> PoolConfiguration | None:
        grid = space.grid()
        order = rng.permutation(grid.shape[0])
        for idx in order:
            pool = space.pool(grid[idx])
            if not budget.seen(pool):
                return pool
        return None
