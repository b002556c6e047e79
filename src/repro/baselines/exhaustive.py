"""Exhaustive search — the ground truth every figure is scored against.

Evaluates lattice configurations in ascending cost order and, by default,
stops at the first QoS-meeting configuration — which, in ascending cost
order, *is* the optimum.  With ``stop_at_first=False`` it sweeps the whole
lattice (used by tests to validate the early stop).

No violator skip is needed: prices are positive, so a configuration
component-wise below a violator costs less (equal costs keep lattice
order, which puts it first too) and the sweep has already evaluated it.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import ConfigurationEvaluator, EvaluationRecord
from repro.core.strategy import Budget, SearchStrategy
from repro.simulator.pool import PoolConfiguration


class ExhaustiveSearch(SearchStrategy):
    """Ascending-cost sweep of the whole configuration lattice.

    Parameters
    ----------
    stop_at_first:
        Stop at the first QoS-meeting configuration, the optimum under
        ascending cost order (exact under the capacity-monotonicity
        assumption the paper's pruning also relies on).
    """

    name = "Exhaustive"

    def __init__(
        self,
        max_samples: int = 1_000_000,
        seed: int = 0,
        *,
        stop_at_first: bool = True,
    ):
        super().__init__(max_samples=max_samples, seed=seed)
        self.stop_at_first = bool(stop_at_first)

    def _run(
        self,
        evaluator: ConfigurationEvaluator,
        budget: Budget,
        start: PoolConfiguration | None,
    ) -> None:
        space = evaluator.space
        grid = space.grid()
        order = np.argsort(grid @ space.prices, kind="stable")
        for idx in order:
            if budget.exhausted:
                return
            rec = budget.evaluate(space.pool(grid[idx]))
            if rec is None:
                return
            if rec.meets_qos and self.stop_at_first:
                budget.stopped = True
                return
        budget.stopped = True


def find_optimal_configuration(
    evaluator: ConfigurationEvaluator,
) -> EvaluationRecord | None:
    """Cheapest QoS-meeting configuration of the space (or None).

    Ascending-cost sweep to the first satisfier; the returned record is
    the ground truth optimum used to score every search method.
    """
    result = ExhaustiveSearch().search(evaluator)
    return result.best
