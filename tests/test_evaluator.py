"""Unit tests for the configuration evaluator (caching + accounting).

Exploration dollars and violating samples (Figs. 13/14) are read where a
search reports them, on :class:`SearchResult`, through a strategy that
samples a fixed list of configurations.
"""

import numpy as np
import pytest

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.strategy import Budget, SearchStrategy
from repro.simulator.pool import PoolConfiguration
from repro.workload.trace import trace_for_model


class _Replay(SearchStrategy):
    """Samples the given lattice vectors in order."""

    name = "replay"

    def __init__(self, vectors):
        super().__init__(max_samples=max(1, len(vectors)))
        self._vectors = vectors

    def _run(self, evaluator, budget, start):
        for vec in self._vectors:
            budget.evaluate(evaluator.space.pool(vec))


def search(evaluator, *vectors):
    return _Replay(vectors).search(evaluator)


class TestEvaluation:
    def test_record_fields_consistent(self, toy_evaluator, toy_space):
        rec = toy_evaluator.evaluate(toy_space.pool((2, 2)))
        assert rec.pool.counts == (2, 2)
        assert 0.0 <= rec.qos_rate <= 1.0
        assert rec.cost_per_hour == pytest.approx(2 * 0.526 + 2 * 0.1664)
        assert rec.objective == pytest.approx(
            toy_evaluator.objective.value((2, 2), rec.qos_rate)
        )
        assert rec.meets_qos == (rec.qos_rate >= 0.95)

    def test_caching_is_free(self, toy_evaluator, toy_space):
        pool = toy_space.pool((2, 2))
        r1 = toy_evaluator.evaluate(pool)
        r2 = toy_evaluator.evaluate(pool)
        assert r1 is r2
        # The hit admitted nothing: the next new pool is sample 1.
        assert toy_evaluator.evaluate(toy_space.pool((1, 1))).sample_index == 1

    def test_history_order_and_sample_index(self, toy_evaluator, toy_space):
        hist = [
            toy_evaluator.evaluate(toy_space.pool((1, 0))),
            toy_evaluator.evaluate(toy_space.pool((0, 3))),
        ]
        assert [r.sample_index for r in hist] == [0, 1]
        assert hist[0].pool.counts == (1, 0)

    def test_empty_pool_synthetic_record(self, toy_evaluator, toy_space):
        rec = toy_evaluator.evaluate(toy_space.pool((0, 0)))
        assert rec.qos_rate == 0.0
        assert not rec.meets_qos
        assert rec.cost_per_hour == 0.0

    def test_family_mismatch_rejected(self, toy_evaluator):
        with pytest.raises(ValueError, match="families"):
            toy_evaluator.evaluate(PoolConfiguration(("g4dn", "c5"), (1, 1)))

    def test_violating_counter(self, toy_evaluator):
        # (0, 1) is hopeless and violates; the max pool (4, 6) meets.
        assert search(toy_evaluator, (0, 1), (4, 6)).n_violating_samples == 1

    def test_best_satisfying_cheapest(self, toy_evaluator, toy_space):
        budget = Budget(toy_evaluator, max_samples=5)
        assert budget.best_satisfying() is None
        budget.evaluate(toy_space.pool((4, 6)))
        budget.evaluate(toy_space.pool((4, 0)))
        best = budget.best_satisfying()
        assert best is not None
        # The cheapest of the satisfying records evaluated so far.
        satisfying = [r for r in budget.window() if r.meets_qos]
        assert best.cost_per_hour == min(r.cost_per_hour for r in satisfying)


class TestAccounting:
    def test_exploration_cost_accumulates(self, toy_evaluator):
        assert search(toy_evaluator).exploration_cost_dollars == 0.0
        expected = (2 * 0.526 + 2 * 0.1664) * (
            toy_evaluator.trace.duration_s / 3600.0
        )
        result = search(toy_evaluator, (2, 2))
        assert result.exploration_cost_dollars == pytest.approx(expected)

    def test_exhaustive_cost_covers_whole_grid(self, toy_evaluator, toy_space):
        total = toy_evaluator.exhaustive_cost_dollars()
        eval_hours = toy_evaluator.trace.duration_s / 3600.0
        grid = toy_space.grid()
        expected = float((grid @ toy_space.prices).sum()) * eval_hours
        assert total == pytest.approx(expected)

    def test_custom_eval_duration(self, toy_model, toy_trace, toy_space):
        obj = RibbonObjective(toy_space, 0.95)
        ev = ConfigurationEvaluator(
            toy_model, toy_trace, obj, eval_duration_hours=2.0
        )
        assert search(ev, (1, 0)).exploration_cost_dollars == pytest.approx(
            0.526 * 2.0
        )


class TestFork:
    def test_fork_uses_new_trace_and_fresh_cache(
        self, toy_evaluator, toy_model, toy_space
    ):
        pool = toy_space.pool((1, 1))
        parent_record = toy_evaluator.evaluate(pool)
        toy_evaluator.evaluate(toy_space.pool((2, 2)))
        heavier = trace_for_model(toy_model, n_queries=300, seed=9, load_factor=1.5)
        forked = toy_evaluator.fork(heavier)
        assert forked.trace is heavier
        # Nothing carries over: the parent's record is the fork's sample 0.
        record = forked.evaluate(pool)
        assert record is not parent_record
        assert record.sample_index == 0
        assert forked.objective is toy_evaluator.objective

    def test_fork_redefaults_window_from_new_trace(
        self, toy_model, toy_trace, toy_space
    ):
        # Regression: a *defaulted* eval window (trace duration) used to be
        # passed verbatim to the fork, so a load-change fork onto a
        # different-duration trace billed exploration dollars against the
        # stale parent window.
        obj = RibbonObjective(toy_space, 0.95)
        parent = ConfigurationEvaluator(toy_model, toy_trace, obj)
        assert parent.eval_duration_hours == pytest.approx(
            toy_trace.duration_s / 3600.0
        )
        longer = trace_for_model(toy_model, n_queries=1200, seed=9)
        forked = parent.fork(longer)
        assert longer.duration_s != pytest.approx(toy_trace.duration_s)
        assert forked.eval_duration_hours == pytest.approx(
            longer.duration_s / 3600.0
        )
        # The dollar accounting follows the new window.
        result = search(forked, (1, 0))
        assert result.exploration_cost_dollars == pytest.approx(
            result.history[0].cost_per_hour * longer.duration_s / 3600.0
        )

    def test_fork_keeps_explicit_window(self, toy_model, toy_trace, toy_space):
        obj = RibbonObjective(toy_space, 0.95)
        parent = ConfigurationEvaluator(
            toy_model, toy_trace, obj, eval_duration_hours=2.5
        )
        longer = trace_for_model(toy_model, n_queries=1200, seed=9)
        forked = parent.fork(longer)
        assert forked.eval_duration_hours == pytest.approx(2.5)
        # ... and the pinned window survives a second-generation fork too.
        assert forked.fork(toy_trace).eval_duration_hours == pytest.approx(2.5)

    def test_fork_of_fork_follows_latest_trace(self, toy_model, toy_trace, toy_space):
        obj = RibbonObjective(toy_space, 0.95)
        parent = ConfigurationEvaluator(toy_model, toy_trace, obj)
        mid = trace_for_model(toy_model, n_queries=800, seed=3)
        final = trace_for_model(toy_model, n_queries=200, seed=4)
        grandchild = parent.fork(mid).fork(final)
        assert grandchild.eval_duration_hours == pytest.approx(
            final.duration_s / 3600.0
        )

    def test_qos_target_override(self, toy_model, toy_trace, toy_space):
        obj = RibbonObjective(toy_space, 0.95)
        ev = ConfigurationEvaluator(toy_model, toy_trace, obj, qos_target_ms=5.0)
        rec_tight = ev.evaluate(toy_space.pool((4, 0)))
        ev2 = ConfigurationEvaluator(toy_model, toy_trace, obj, qos_target_ms=100.0)
        rec_loose = ev2.evaluate(toy_space.pool((4, 0)))
        assert rec_loose.qos_rate >= rec_tight.qos_rate


class TestEmptyTraceGuard:
    """A zero-query window must never enter a search (it looks QoS-perfect)."""

    def _empty_trace(self):
        from repro.workload.trace import QueryTrace

        return QueryTrace(
            np.empty(0, dtype=float), np.empty(0, dtype=np.int64), rate_qps=1.0
        )

    def test_empty_trace_rejected_at_construction(self, toy_model, toy_space):
        obj = RibbonObjective(toy_space, 0.95)
        with pytest.raises(ValueError, match="no queries"):
            ConfigurationEvaluator(toy_model, self._empty_trace(), obj)

    def test_fork_onto_empty_trace_rejected(self, toy_evaluator):
        with pytest.raises(ValueError, match="no queries"):
            toy_evaluator.fork(self._empty_trace())


class TestRunningAccumulators:
    """A search's dollar and violation totals count each sample once."""

    def test_cache_hits_do_not_double_count(self, toy_evaluator):
        once = search(toy_evaluator, (2, 2))
        twice = search(toy_evaluator, (2, 2), (2, 2))
        assert twice.n_samples == 1
        assert twice.exploration_cost_dollars == once.exploration_cost_dollars
        assert twice.n_violating_samples == once.n_violating_samples

    def test_empty_pool_counts_as_violation(self, toy_evaluator):
        result = search(toy_evaluator, (0, 0))
        assert result.n_violating_samples == 1
        assert result.exploration_cost_dollars == 0.0
