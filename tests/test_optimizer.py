"""Integration tests for the Ribbon BO optimizer on the toy workload."""

import pytest

from repro.baselines.exhaustive import find_optimal_configuration
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.optimizer import PseudoObservation, RibbonOptimizer
from repro.core.search_space import SearchSpace
from tests.conftest import make_toy_model, make_toy_trace


@pytest.fixture(scope="module")
def ctx():
    """Shared toy search context with the ground-truth optimum."""
    model = make_toy_model(arrival_rate_qps=400.0)
    trace = make_toy_trace(model, n=600, seed=5)
    space = SearchSpace(("g4dn", "t3"), (4, 6))
    objective = RibbonObjective(space, qos_rate_target=0.95)
    evaluator = ConfigurationEvaluator(model, trace, objective)
    truth = find_optimal_configuration(evaluator)
    assert truth is not None, "toy workload must have a feasible optimum"
    return model, trace, space, objective, evaluator, truth


def fresh_evaluator(ctx):
    model, trace, space, objective, _, _ = ctx
    return ConfigurationEvaluator(model, trace, objective)


class TestSearch:
    def test_finds_ground_truth_optimum(self, ctx):
        *_, truth = ctx
        opt = RibbonOptimizer(max_samples=30, seed=0)
        res = opt.search(fresh_evaluator(ctx))
        assert res.best is not None
        assert res.best.cost_per_hour == pytest.approx(truth.cost_per_hour)

    def test_finds_optimum_across_seeds(self, ctx):
        *_, truth = ctx
        for seed in (1, 2, 3):
            res = RibbonOptimizer(max_samples=35, seed=seed).search(
                fresh_evaluator(ctx)
            )
            assert res.best is not None
            assert res.best.cost_per_hour <= truth.cost_per_hour + 1e-9

    def test_uses_far_fewer_samples_than_grid(self, ctx):
        _, _, space, *_ = ctx
        res = RibbonOptimizer(max_samples=60, seed=0).search(fresh_evaluator(ctx))
        assert res.n_samples < space.n_configurations / 2

    def test_respects_budget(self, ctx):
        res = RibbonOptimizer(max_samples=5, seed=0, patience=None).search(
            fresh_evaluator(ctx)
        )
        assert res.n_samples <= 5

    def test_start_point_is_first_sample(self, ctx):
        _, _, space, *_ = ctx
        start = space.pool((4, 0))
        res = RibbonOptimizer(max_samples=10, seed=0).search(
            fresh_evaluator(ctx), start=start
        )
        assert res.history[0].pool.counts == (4, 0)

    def test_start_outside_space_rejected(self, ctx):
        _, _, space, *_ = ctx
        from repro.simulator.pool import PoolConfiguration

        with pytest.raises(ValueError, match="outside"):
            RibbonOptimizer().search(
                fresh_evaluator(ctx),
                start=PoolConfiguration(("g4dn", "t3"), (9, 9)),
            )

    def test_patience_stops_early(self, ctx):
        res = RibbonOptimizer(max_samples=60, seed=0, patience=3).search(
            fresh_evaluator(ctx)
        )
        assert res.n_samples < 60
        assert res.converged

    def test_metadata_reports_pruning(self, ctx):
        res = RibbonOptimizer(max_samples=20, seed=0).search(fresh_evaluator(ctx))
        assert "n_pruned_final" in res.metadata
        assert res.metadata["n_pruned_final"] > 0


class TestAblations:
    def test_pruning_reduces_samples_to_optimum(self, ctx):
        *_, truth = ctx
        with_p, without_p = [], []
        for seed in (0, 1, 2, 3):
            r1 = RibbonOptimizer(
                max_samples=40, seed=seed, use_pruning=True, patience=None
            ).search(fresh_evaluator(ctx))
            r2 = RibbonOptimizer(
                max_samples=40, seed=seed, use_pruning=False, patience=None
            ).search(fresh_evaluator(ctx))
            cap = 40
            n1 = r1.samples_to_cost(truth.cost_per_hour) or cap
            n2 = r2.samples_to_cost(truth.cost_per_hour) or cap
            with_p.append(n1)
            without_p.append(n2)
        assert sum(with_p) <= sum(without_p)

    def test_rounding_flag_changes_search(self, ctx):
        r1 = RibbonOptimizer(max_samples=15, seed=0, use_rounding=True).search(
            fresh_evaluator(ctx)
        )
        r2 = RibbonOptimizer(max_samples=15, seed=0, use_rounding=False).search(
            fresh_evaluator(ctx)
        )
        assert r1.n_samples > 0 and r2.n_samples > 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RibbonOptimizer(max_samples=0)
        with pytest.raises(ValueError):
            RibbonOptimizer(n_initial=0)
        with pytest.raises(ValueError):
            RibbonOptimizer(prune_threshold=-0.1)
        with pytest.raises(ValueError):
            RibbonOptimizer(patience=0)


class TestWarmStart:
    def test_pseudo_observations_accepted(self, ctx):
        _, _, space, *_ = ctx
        pseudo = [
            PseudoObservation(counts=(0, 1), objective=0.05),
            PseudoObservation(counts=(0, 2), objective=0.10),
        ]
        opt = RibbonOptimizer(max_samples=15, seed=0, pseudo_observations=pseudo)
        res = opt.search(fresh_evaluator(ctx))
        assert res.best is not None
        # Pseudo observations must not appear in the evaluation history.
        sampled = {r.pool.counts for r in res.history}
        assert (0, 1) not in sampled or len(res.history) <= 15

    def test_prune_seed_blocks_region(self, ctx):
        opt = RibbonOptimizer(
            max_samples=20, seed=0, prune_seed=[(2, 3)], patience=None
        )
        res = opt.search(fresh_evaluator(ctx))
        start_counts = res.history[0].pool.counts
        for rec in res.history:
            if rec.pool.counts == start_counts:
                continue  # the start point is always evaluated
            assert not (
                rec.pool.counts[0] <= 2 and rec.pool.counts[1] <= 3
            ), f"sampled pruned config {rec.pool}"


class TestBatchedInitialDesign:
    """The random initial design rides the Budget.evaluate_batch path."""

    def test_initial_design_flows_through_evaluate_batch(self, ctx, monkeypatch):
        from repro.core import strategy as strategy_module

        sizes = []
        orig = strategy_module.Budget.evaluate_batch

        def spy(self, pools):
            sizes.append(len(pools))
            return orig(self, pools)

        monkeypatch.setattr(strategy_module.Budget, "evaluate_batch", spy)
        opt = RibbonOptimizer(
            max_samples=6, seed=0, n_initial=6, batch_size=4, patience=None
        )
        opt.search(fresh_evaluator(ctx))
        # The start point consumes one design slot; the remaining 5 random
        # draws are evaluated as a 4-batch plus the remainder — not one
        # evaluate() call per point.
        assert sizes == [4, 1]

    def test_batched_draws_replay_the_sequential_rng_stream(self, ctx):
        """batch_size only groups evaluations; the draw order is unchanged.

        Pre-marking each drawn cell reproduces exactly the sampled-mask
        state the sequential draw/observe interleaving would have built,
        so the initial design is the same point set in the same order.
        (Pruning is disabled: sequentially it can retire cells *between*
        draws from evaluations a batch intentionally defers.)
        """
        n_init = 5
        kwargs = dict(
            max_samples=n_init,
            seed=3,
            n_initial=n_init,
            patience=None,
            use_pruning=False,
        )
        seq = RibbonOptimizer(**kwargs).search(fresh_evaluator(ctx))
        bat = RibbonOptimizer(batch_size=4, **kwargs).search(fresh_evaluator(ctx))
        assert [r.pool.counts for r in bat.history] == [
            r.pool.counts for r in seq.history
        ]
        assert [r.cost_per_hour for r in bat.history] == [
            r.cost_per_hour for r in seq.history
        ]
