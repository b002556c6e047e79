"""Unit tests for search results and the shared strategy budget."""

import pytest

from repro.core.evaluator import EvaluationRecord
from repro.core.result import SearchResult
from repro.core.strategy import Budget
from repro.simulator.pool import PoolConfiguration


def rec(counts, rate, cost, meets, idx=0):
    return EvaluationRecord(
        pool=PoolConfiguration(("g4dn", "t3"), counts),
        qos_rate=rate,
        cost_per_hour=cost,
        objective=rate,
        meets_qos=meets,
        sample_index=idx,
        p99_ms=10.0,
        mean_queue_length=0.0,
    )


def result(history, method="X"):
    meeting = [r for r in history if r.meets_qos]
    best = min(meeting, key=lambda r: r.cost_per_hour) if meeting else None
    return SearchResult(
        method=method,
        best=best,
        history=tuple(history),
        exploration_cost_dollars=1.0,
        exhaustive_cost_dollars=10.0,
    )


HISTORY = [
    rec((5, 0), 0.999, 2.63, True, 0),
    rec((4, 0), 0.95, 2.10, False, 1),
    rec((3, 4), 0.992, 2.24, True, 2),
    rec((2, 4), 0.98, 1.72, False, 3),
]


class TestSearchResult:
    def test_counters(self):
        res = result(HISTORY)
        assert res.n_samples == 4
        assert res.n_violating_samples == 2
        assert res.best is not None
        assert res.best_cost == pytest.approx(2.24)

    def test_exploration_cost_fraction(self):
        assert result(HISTORY).exploration_cost_fraction() == pytest.approx(0.1)

    def test_samples_to_cost(self):
        res = result(HISTORY)
        assert res.samples_to_cost(2.63) == 1
        assert res.samples_to_cost(2.24) == 3
        assert res.samples_to_cost(1.0) is None

    def test_samples_to_saving(self):
        res = result(HISTORY)
        # 2.63 baseline, 14.8% saving -> target 2.24.
        assert res.samples_to_saving(2.63, 14.8) == 3
        with pytest.raises(ValueError):
            res.samples_to_saving(0.0, 10.0)

    def test_violations_before_sample(self):
        res = result(HISTORY)
        assert res.violations_before_sample(2) == 1
        assert res.violations_before_sample(4) == 2

    def test_samples_to_best(self):
        assert result(HISTORY).samples_to_best() == 3

    def test_empty_result(self):
        res = result([rec((1, 0), 0.5, 0.53, False)])
        assert res.best is None
        assert res.best_cost == float("inf")
        assert res.samples_to_best() is None

    def test_summary_mentions_method_and_best(self):
        s = result(HISTORY, method="RIBBON").summary()
        assert "RIBBON" in s and "3 g4dn + 4 t3" in s


class TestBudget:
    def test_window_tracks_only_this_search(self, toy_evaluator, toy_space):
        b1 = Budget(toy_evaluator, max_samples=5)
        first = b1.evaluate(toy_space.pool((2, 2)))
        b2 = Budget(toy_evaluator, max_samples=5)
        # Same config: cache hit on the evaluator but still a sample for b2.
        assert b2.evaluate(toy_space.pool((2, 2))) is first
        assert b1.n_samples == 1
        assert b2.n_samples == 1

    def test_revisits_within_search_are_free(self, toy_evaluator, toy_space):
        b = Budget(toy_evaluator, max_samples=5)
        pool = toy_space.pool((1, 1))
        b.evaluate(pool)
        b.evaluate(pool)
        assert b.n_samples == 1
        assert b.seen(pool)

    def test_budget_exhaustion_returns_none(self, toy_evaluator, toy_space):
        b = Budget(toy_evaluator, max_samples=1)
        assert b.evaluate(toy_space.pool((1, 0))) is not None
        assert b.evaluate(toy_space.pool((0, 1))) is None
        assert b.exhausted
        assert b.remaining == 0

    def test_best_satisfying_windowed(self, toy_evaluator, toy_space):
        # Evaluate a satisfier through another budget first.
        pre = Budget(toy_evaluator, max_samples=5)
        pre.evaluate(toy_space.pool((4, 6)))
        b = Budget(toy_evaluator, max_samples=5)
        b.evaluate(toy_space.pool((0, 1)))
        assert b.best_satisfying() is None  # the satisfier is not in b's window
