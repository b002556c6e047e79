"""Common interface for configuration search strategies.

Ribbon and every competing technique (RANDOM / Hill-Climb / RSM /
exhaustive) implement the same contract: given an evaluator (the costly
black box) produce a :class:`~repro.core.result.SearchResult`.  The base
class centralizes the bookkeeping every strategy shares — per-search
evaluation windows (:class:`Budget`), stopping on budget, and result
assembly — so the comparisons of Figs. 10/13/14 are apples-to-apples.

Strategies become selectable by name (``Scenario.run("my-strategy")``,
``repro-ribbon search --method my-strategy``) by registering with
:func:`repro.api.register_strategy`.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.core.evaluator import ConfigurationEvaluator, EvaluationRecord
from repro.core.result import SearchResult
from repro.simulator.pool import PoolConfiguration


class SearchStrategy(abc.ABC):
    """A configuration search method.

    Parameters
    ----------
    max_samples:
        Evaluation budget per search (distinct configurations).
    seed:
        Seed for any stochastic choices the strategy makes.
    """

    #: Human-readable method name used in reports.
    name: str = "strategy"

    def __init__(self, max_samples: int = 100, seed: int = 0):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples!r}")
        self.max_samples = int(max_samples)
        self.seed = int(seed)

    # -- to implement -----------------------------------------------------------
    @abc.abstractmethod
    def _run(
        self,
        evaluator: ConfigurationEvaluator,
        budget: "Budget",
        start: PoolConfiguration | None,
    ) -> None:
        """Drive the search; call ``budget.evaluate(pool)`` to sample."""

    # -- public API ---------------------------------------------------------------
    def search(
        self,
        evaluator: ConfigurationEvaluator,
        start: PoolConfiguration | None = None,
    ) -> SearchResult:
        """Run the strategy against ``evaluator`` and assemble the result.

        The evaluator may be shared across strategies (its cache makes
        repeated evaluations free); each search's accounting is windowed to
        the evaluations *this* call performed.
        """
        budget = Budget(evaluator, self.max_samples)
        self._run(evaluator, budget, start)
        history = budget.window()
        meeting = [r for r in history if r.meets_qos]
        best = min(meeting, key=lambda r: r.cost_per_hour) if meeting else None
        eval_hours = _eval_hours(evaluator)
        return SearchResult(
            method=self.name,
            best=best,
            history=tuple(history),
            exploration_cost_dollars=sum(r.cost_per_hour for r in history)
            * eval_hours,
            exhaustive_cost_dollars=evaluator.exhaustive_cost_dollars(),
            converged=budget.exhausted or budget.stopped,
            metadata=dict(budget.metadata),
        )


def _eval_hours(evaluator: ConfigurationEvaluator) -> float:
    return evaluator.eval_duration_hours


class Budget:
    """Windowed evaluation budget shared between strategy and base class.

    Tracks the evaluations performed by one ``search`` call even when the
    underlying evaluator is shared (cache hits against configurations that
    an *earlier* search already evaluated still count as samples for this
    search — the strategy had to deploy them to learn the outcome).
    """

    def __init__(self, evaluator: ConfigurationEvaluator, max_samples: int):
        self._evaluator = evaluator
        self._max = max_samples
        self._records: list[EvaluationRecord] = []
        self._seen: set[tuple[int, ...]] = set()
        self.stopped = False
        self.metadata: dict = {}

    @property
    def n_samples(self) -> int:
        return len(self._records)

    @property
    def exhausted(self) -> bool:
        return self.n_samples >= self._max

    @property
    def remaining(self) -> int:
        return self._max - self.n_samples

    def seen(self, pool: PoolConfiguration) -> bool:
        """Whether this search already sampled the configuration."""
        return pool.counts in self._seen

    def evaluate(self, pool: PoolConfiguration) -> EvaluationRecord | None:
        """Evaluate within budget; returns None when the budget is spent.

        Re-sampling a configuration this search already visited is free (it
        taught the strategy nothing new).
        """
        if pool.counts in self._seen:
            return self._evaluator.evaluate(pool)
        if self.exhausted:
            return None
        record = self._evaluator.evaluate(pool)
        self._records.append(record)
        self._seen.add(pool.counts)
        return record

    def evaluate_batch(
        self,
        pools: Sequence[PoolConfiguration],
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        backend=None,
    ) -> list[EvaluationRecord | None]:
        """Evaluate a proposed batch; one entry per pool, in order.

        Semantics match calling :meth:`evaluate` once per pool left to
        right — already-seen configurations are free (even when the
        budget is exhausted), new ones consume budget, and each new pool
        beyond the remaining budget maps to ``None`` — except that with
        ``parallel=True`` the simulations of the batch's new
        configurations run concurrently on an evaluation backend (see
        :meth:`ConfigurationEvaluator.evaluate_many`; ``backend`` routes
        to a specific :class:`~repro.core.backends.EvaluationBackend` or
        registry name, default thread).  Record order, sample indices
        and all accounting stay deterministic regardless of parallelism
        and backend, so batched searches replay bit-for-bit.
        """
        pools = list(pools)
        # Disposition per pool, mirroring per-pool evaluate(): "free" for
        # seen configurations (incl. duplicates earlier in this batch),
        # "new" while budget remains, None ("over") otherwise.
        dispositions: list[str | None] = []
        new_counts: set[tuple[int, ...]] = set()
        for pool in pools:
            if pool.counts in self._seen or pool.counts in new_counts:
                dispositions.append("free")
            elif self.n_samples + len(new_counts) < self._max:
                new_counts.add(pool.counts)
                dispositions.append("new")
            else:
                dispositions.append(None)
        records = iter(
            self._evaluator.evaluate_many(
                [p for p, d in zip(pools, dispositions) if d is not None],
                parallel=parallel,
                max_workers=max_workers,
                backend=backend,
            )
        )
        out: list[EvaluationRecord | None] = []
        for pool, disposition in zip(pools, dispositions):
            if disposition is None:
                out.append(None)
                continue
            record = next(records)
            if pool.counts not in self._seen:
                self._records.append(record)
                self._seen.add(pool.counts)
            out.append(record)
        return out

    def window(self) -> list[EvaluationRecord]:
        """Evaluations performed by this search, in order."""
        return list(self._records)

    def best_satisfying(self) -> EvaluationRecord | None:
        """Cheapest QoS-meeting record within this search window."""
        meeting = [r for r in self._records if r.meets_qos]
        if not meeting:
            return None
        return min(meeting, key=lambda r: r.cost_per_hour)

