"""The acquisition layer's contracts.

* a q-EI batch opens with the ``q=1`` pick, and the search's candidate
  mask, narrowed incrementally, always equals a fresh one;
* batch evaluation (``Budget.evaluate_batch``) matches per-pool
  ``Budget.evaluate`` calls: record order, budget cut and accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.optimizer import RibbonOptimizer
from repro.core.pruning import PruneSet
from repro.core.search_space import SearchSpace
from repro.core.strategy import Budget
from repro.gp.kernels import Matern52
from repro.gp.proposals import AcquisitionContext, SequentialEI
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from tests.conftest import dispatch_delta, make_toy_model, make_toy_trace

FIVE_FAMILIES = ("g4dn", "t3", "c5", "m5", "r5")


def toy_search_ctx():
    model = make_toy_model(arrival_rate_qps=400.0)
    trace = make_toy_trace(model, n=600, seed=5)
    space = SearchSpace(("g4dn", "t3"), (4, 6))
    objective = RibbonObjective(space, qos_rate_target=0.95)
    return model, trace, space, objective


def fresh_evaluator(model, trace, objective):
    # Result memo disabled so repeat runs genuinely re-simulate.
    return ConfigurationEvaluator(
        model, trace, objective, result_cache=SimulationResultCache(maxsize=0)
    )


def run_ribbon(seed: int, **kwargs):
    model, trace, space, objective = toy_search_ctx()
    evaluator = fresh_evaluator(model, trace, objective)
    return RibbonOptimizer(max_samples=25, seed=seed, **kwargs).search(evaluator)


def sequence(result):
    return [r.pool.counts for r in result.history]


# ---------------------------------------------------------------------------
# Construction: what RibbonOptimizer resolves before any search runs
# ---------------------------------------------------------------------------
class TestEngineResolution:
    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            RibbonOptimizer(batch_size=0)

    def test_stream_knobs_fail_fast_at_construction(self):
        """There is one lattice regime and one engine: RibbonOptimizer
        takes no regime or engine knob."""
        for knob, value in (
            ("stream", "always"), ("stream_block_size", 7), ("proposal_engine", "qei")
        ):
            with pytest.raises(TypeError, match=knob):
                RibbonOptimizer(**{knob: value})


# ---------------------------------------------------------------------------
# Bit-identity: a q-EI batch's first pick
# ---------------------------------------------------------------------------
class TestBatchSequentialEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_qei_at_batch_one_is_bit_identical(self, seed):
        """The q-EI batch's pick one is the q=1 pick, bit for bit: the same
        refit, predict and first tie-break draw.  The fantasy picks after
        it are new, unsampled cells."""
        space = SearchSpace(("g4dn", "t3"), (4, 6))

        def ctx_after_design() -> AcquisitionContext:
            ctx = AcquisitionContext(
                space, rng=np.random.default_rng(seed), make_kernel=Matern52
            )
            for _ in range(5):
                cell = ctx.random_unsampled()
                ctx.observe(space.counts_at(cell), float(np.sin(cell)))
            return ctx

        one = SequentialEI().propose(ctx_after_design(), 1)
        ctx = ctx_after_design()
        batch = SequentialEI().propose(ctx, 4)
        assert len(one) == 1 and batch[0] == one[0]
        assert len(set(batch)) == 4
        assert not set(batch) & ctx.sampled_idx


# One mask-changing step: (kind, argument).  Cells and costs are drawn as
# raw integers / fractions and mapped onto the drawn lattice.
_mask_steps = st.one_of(
    st.tuples(st.just("observe"), st.integers(0, 10**6)),
    st.tuples(st.just("violator"), st.integers(0, 10**6)),
    st.tuples(st.just("threshold"), st.floats(0.0, 1.2)),
    st.tuples(st.just("threshold-at-cell"), st.integers(0, 10**6)),
    st.tuples(st.just("read"), st.booleans()),
)


class TestIncrementalCandidateMask:
    @given(
        bounds=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        steps=st.lists(_mask_steps, max_size=30),
        pruning=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_kept_mask_equals_a_fresh_mask(self, bounds, steps, pruning):
        space = SearchSpace(FIVE_FAMILIES[: len(bounds)], tuple(bounds))
        prune = PruneSet(space.prices)
        ctx = AcquisitionContext(
            space,
            rng=np.random.default_rng(0),
            make_kernel=Matern52,
            prune=prune if pruning else None,
        )
        grid = space.grid()
        costs = prune.costs(grid)

        def fresh() -> np.ndarray:
            mask = np.ones(grid.shape[0], dtype=bool)
            mask[list(ctx.sampled_idx)] = False
            if pruning:
                mask &= ~prune.mask(grid)
            return mask

        for kind, arg in steps:
            if kind == "observe":
                ctx.observe(grid[arg % grid.shape[0]], 0.0)
            elif kind == "violator":
                prune.add_violator(grid[arg % grid.shape[0]])
            elif kind == "threshold":
                prune.update_cost_threshold(arg * float(costs.max()))
            elif kind == "threshold-at-cell":
                prune.update_cost_threshold(float(costs[arg % costs.size]))
            else:
                got = ctx.candidate_indices()
                np.testing.assert_array_equal(got, np.flatnonzero(fresh()))
                if arg:
                    got[:] = 0  # a caller mutating its copy
        np.testing.assert_array_equal(
            ctx.candidate_indices(), np.flatnonzero(fresh())
        )

    def test_initial_design_marks_reach_the_kept_mask(self):
        space = SearchSpace(("g4dn", "t3"), (3, 3))
        ctx = AcquisitionContext(
            space, rng=np.random.default_rng(1), make_kernel=Matern52
        )
        assert ctx.candidate_indices().size == space.n_configurations
        drawn = set()
        while (cell := ctx.random_unsampled()) is not None:
            assert cell not in drawn
            ctx.mark_sampled(cell)
            drawn.add(cell)
        assert drawn == set(range(space.n_configurations))
        assert ctx.candidate_indices().size == 0
        assert ctx.sampled_idx == frozenset(drawn)


class TestBatchedSearch:
    def test_batch_respects_budget_and_no_resampling(self):
        res = run_ribbon(1, batch_size=4, patience=None)
        counts = sequence(res)
        assert len(counts) == len(set(counts))
        assert len(counts) <= 25

    def test_batch_amortizes_surrogate_updates(self, monkeypatch):
        from repro.gp.regression import GaussianProcessRegressor

        fits: list[int] = []
        orig = GaussianProcessRegressor.fit

        def counting_fit(gp, X, y):
            fits.append(len(X))
            return orig(gp, X, y)

        monkeypatch.setattr(GaussianProcessRegressor, "fit", counting_fit)
        run_ribbon(0, patience=None, use_pruning=False)
        sequential_fits = len(fits)
        fits.clear()
        run_ribbon(0, batch_size=4, patience=None, use_pruning=False)
        batched_fits = len(fits)
        # One surrogate build per batch instead of one per sample.
        assert batched_fits <= (sequential_fits + 3) // 4 + 1

    def test_metadata_present_when_search_ends_in_initial_design(self):
        model = make_toy_model(arrival_rate_qps=400.0)
        trace = make_toy_trace(model, n=200, seed=5)
        space = SearchSpace(("g4dn",), (1,))  # one lattice cell
        objective = RibbonObjective(space, qos_rate_target=0.95)
        evaluator = fresh_evaluator(model, trace, objective)
        res = RibbonOptimizer(max_samples=10, seed=0).search(evaluator)
        assert len(res.history) == 1  # candidates ran out before the BO loop
        assert res.metadata["proposal_batches"] == 0
        assert "n_pruned_final" in res.metadata
        assert "cost_threshold" in res.metadata

    def test_batch_metadata(self):
        res = run_ribbon(0, batch_size=4, patience=None)
        assert res.metadata["proposal_batches"] >= 1
        # 25 samples, 3 initial, 4 per batch -> at most ceil(22/4)+1 batches.
        assert res.metadata["proposal_batches"] <= 7


# ---------------------------------------------------------------------------
# Batch evaluation plumbing
# ---------------------------------------------------------------------------
class TestEvaluateBatch:
    def make_budget(self, max_samples=5):
        model, trace, space, objective = toy_search_ctx()
        evaluator = fresh_evaluator(model, trace, objective)
        return space, evaluator, Budget(evaluator, max_samples)

    def test_records_in_order_and_budget_cut(self):
        space, evaluator, budget = self.make_budget(max_samples=3)
        pools = [space.pool(v) for v in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 2)]]
        records = budget.evaluate_batch(pools)
        assert [r.pool.counts for r in records[:3]] == [
            (1, 0), (0, 1), (1, 1),
        ]
        assert records[3] is None and records[4] is None
        assert budget.exhausted
        assert [r.pool.counts for r in budget.window()] == [(1, 0), (0, 1), (1, 1)]

    def test_seen_pools_are_free(self):
        space, evaluator, budget = self.make_budget(max_samples=2)
        first = budget.evaluate(space.pool((1, 1)))
        records = budget.evaluate_batch(
            [space.pool((1, 1)), space.pool((2, 0)), space.pool((1, 1))]
        )
        assert records[0] is first and records[2] is first
        assert budget.n_samples == 2

    def test_seen_pools_free_even_past_budget_cut(self):
        # Matches per-pool evaluate(): a seen pool is free on an
        # exhausted budget, wherever it sits in the batch.
        space, evaluator, budget = self.make_budget(max_samples=2)
        seen = budget.evaluate(space.pool((1, 1)))
        records = budget.evaluate_batch(
            [
                space.pool((2, 0)),  # consumes the last budget slot
                space.pool((0, 2)),  # over budget -> None
                space.pool((1, 1)),  # seen -> still free
            ]
        )
        assert records[0] is not None
        assert records[1] is None
        assert records[2] is seen
        assert budget.n_samples == 2

    def test_duplicates_within_batch_consume_once(self):
        space, evaluator, budget = self.make_budget(max_samples=4)
        records = budget.evaluate_batch(
            [space.pool((1, 0)), space.pool((1, 0)), space.pool((0, 2))]
        )
        assert budget.n_samples == 2
        assert records[0] is records[1]

    def test_evaluate_many_dispatches_once_per_pool(self):
        model, trace, space, objective = toy_search_ctx()
        evaluator = ConfigurationEvaluator(
            model,
            trace,
            objective,
            result_cache=SimulationResultCache(maxsize=0),
        )
        pools = [space.pool(v) for v in [(1, 0), (0, 3), (2, 1), (3, 2)]]
        with dispatch_delta() as counts:
            evaluator.evaluate_many(pools)
        assert counts["linear"] == len(pools)
        assert counts["heap"] == 0

    def test_rejects_foreign_families_upfront(self):
        space, evaluator, budget = self.make_budget()
        alien = PoolConfiguration(("g4dn", "c5"), (1, 1))
        with pytest.raises(ValueError, match="families"):
            evaluator.evaluate_many([space.pool((1, 0)), alien])
        # Nothing was admitted: the next evaluation is sample 0.
        assert evaluator.evaluate(space.pool((1, 0))).sample_index == 0


# ---------------------------------------------------------------------------
# Scenario / runner plumbing
# ---------------------------------------------------------------------------
class TestScenarioPlumbing:
    def test_budget_batch_size_validated(self):
        from repro.api import EvaluationBudget, ScenarioError

        assert EvaluationBudget().batch_size == 1
        assert EvaluationBudget(batch_size=4).batch_size == 4
        with pytest.raises(ScenarioError, match="batch_size"):
            EvaluationBudget(batch_size=0)

    def test_builder_sets_batch_size(self):
        from repro.api import Scenario

        scn = Scenario.builder("MT-WND").budget(8, batch_size=4).build()
        assert scn.budget.max_samples == 8
        assert scn.budget.batch_size == 4

    def test_runner_plumbs_batch_size_to_ribbon(self):
        from repro.api import Scenario

        scn = (
            Scenario.builder("MT-WND")
            .workload(n_queries=400, seed=1)
            .pool("g4dn", "t3", bounds=(4, 6))
            .budget(8, batch_size=4)
            .build()
        )
        res = scn.run("ribbon", seed=0, patience=None)
        # Fewer batches than BO samples (the 3 initial-design samples are
        # not proposals): the scenario's batch size engaged.
        assert 1 <= res.metadata["proposal_batches"] < len(res.history) - 3

    def test_runner_leaves_baselines_alone(self):
        from repro.api import Scenario

        scn = (
            Scenario.builder("MT-WND")
            .workload(n_queries=400, seed=1)
            .pool("g4dn", "t3", bounds=(4, 6))
            .budget(6, batch_size=4)
            .build()
        )
        res = scn.run("random", seed=0)
        assert len(res.history) <= 6

    def test_explicit_kwarg_wins_over_scenario(self):
        from repro.api import Scenario

        scn = (
            Scenario.builder("MT-WND")
            .workload(n_queries=400, seed=1)
            .pool("g4dn", "t3", bounds=(4, 6))
            .budget(6, batch_size=4)
            .build()
        )
        res = scn.run("ribbon", seed=0, batch_size=1)
        # One BO sample per batch: the sequential schedule.
        assert res.metadata["proposal_batches"] == len(res.history) - 3


class TestStrategyOptionsRegistry:
    def test_ribbon_surfaces_batch_knobs(self):
        from repro.api import strategy_options

        names = [opt.name for opt in strategy_options("ribbon")]
        assert "batch_size" in names
        assert "max_samples" in names
        for gone in ("proposal_engine", "stream", "stream_block_size", "gp_noise"):
            assert gone not in names

    def test_defaults_reported(self):
        from repro.api import strategy_options

        by_name = {opt.name: opt for opt in strategy_options("ribbon")}
        assert by_name["batch_size"].default == 1
        assert not by_name["batch_size"].required

    def test_unknown_strategy_raises(self):
        from repro.api import UnknownStrategyError, strategy_options

        with pytest.raises(UnknownStrategyError):
            strategy_options("simulated-annealing")
