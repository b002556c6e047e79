"""Exhaustive search — the ground truth every figure is scored against.

Evaluates lattice configurations in ascending cost order.  With dominance
acceleration on (the default), configurations component-wise below a known
QoS violator are skipped (the paper's own pruning soundness argument): one
boolean mask over the lattice, ORed with each violator's box, and
the search stops at the first QoS-meeting configuration — which, in
ascending cost order, *is* the optimum.  With acceleration off it sweeps the
whole lattice (used by tests to validate the accelerated path).
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
    accelerate:
        Skip dominated-below configurations of known violators and stop at
        the first satisfier (exact under the capacity-monotonicity
        assumption the paper's pruning also relies on).
    stop_at_first:
        Stop at the first QoS-meeting configuration (only meaningful with
        ascending cost order; on by default when ``accelerate`` is on).
    """

    name = "Exhaustive"

    def __init__(
        self,
        max_samples: int = 1_000_000,
        seed: int = 0,
        *,
        accelerate: bool = True,
        stop_at_first: bool | None = None,
    ):
        super().__init__(max_samples=max_samples, seed=seed)
        self.accelerate = bool(accelerate)
        self.stop_at_first = (
            bool(stop_at_first) if stop_at_first is not None else self.accelerate
        )

    def _run(
        self,
        evaluator: ConfigurationEvaluator,
        budget: Budget,
        start: PoolConfiguration | None,
    ) -> None:
        space = evaluator.space
        grid = space.grid()
        costs = grid @ space.prices
        order = np.argsort(costs, kind="stable")

        dominated = np.zeros(grid.shape[0], dtype=bool)
        for idx in order:
            if budget.exhausted:
                return
            if dominated[idx]:
                continue
            vec = grid[idx]
            rec = budget.evaluate(space.pool(vec))
            if rec is None:
                return
            if rec.meets_qos:
                if self.stop_at_first:
                    budget.stopped = True
                    return
            elif self.accelerate:
                dominated |= np.all(grid <= vec, axis=1)
        budget.stopped = True


def find_optimal_configuration(
    evaluator: ConfigurationEvaluator,
) -> EvaluationRecord | None:
    """Cheapest QoS-meeting configuration of the space (or None).

    Ascending-cost accelerated sweep; the returned record is the ground
    truth optimum used to score every search method.
    """
    result = ExhaustiveSearch().search(evaluator)
    return result.best
