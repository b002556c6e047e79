"""The declarative Scenario API and the strategy registry.

Covers the redesign contract: registry round-trips for all five built-in
strategies, front-loaded scenario validation with actionable errors,
equivalence of ``Scenario.run`` with the previously hand-wired six-step
pipeline, and deterministic multi-seed sweeps.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConfigurationEvaluator,
    RibbonObjective,
    RibbonOptimizer,
    estimate_instance_bounds,
    get_model,
    trace_for_model,
)
from repro.api import (
    EvaluationBudget,
    PoolSpec,
    QoSSpec,
    Scenario,
    ScenarioError,
    ScenarioRunner,
    UnknownStrategyError,
    WorkloadSpec,
    available_strategies,
    make_strategy,
    register_strategy,
    runner_for,
    strategy_class,
)
from repro.api import registry as registry_module
from repro.baselines import ExhaustiveSearch, HillClimb, RandomSearch, ResponseSurface
from repro.core.search_space import MAX_LATTICE_CELLS
from repro.core.strategy import Budget, SearchStrategy

BUILTIN_STRATEGIES = {
    "ribbon": RibbonOptimizer,
    "hill-climb": HillClimb,
    "random": RandomSearch,
    "rsm": ResponseSurface,
    "exhaustive": ExhaustiveSearch,
}


class TestRegistry:
    def test_all_five_builtins_available(self):
        assert set(BUILTIN_STRATEGIES) <= set(available_strategies())

    @pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
    def test_round_trip(self, name):
        strat = make_strategy(name, max_samples=7, seed=3)
        assert isinstance(strat, BUILTIN_STRATEGIES[name])
        assert strat.max_samples == 7
        assert strat.seed == 3

    def test_name_normalization_and_aliases(self):
        assert strategy_class("RIBBON") is RibbonOptimizer
        assert strategy_class("bo") is RibbonOptimizer
        assert strategy_class("Hill_Climb") is HillClimb
        assert strategy_class("response surface") is ResponseSurface
        assert strategy_class("ground-truth") is ExhaustiveSearch

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownStrategyError, match="ribbon"):
            make_strategy("simulated-annealing")

    def test_strategy_kwargs_reach_constructor(self):
        strat = make_strategy("ribbon", max_samples=9, seed=1, patience=None)
        assert strat.patience is None

    def test_unknown_option_is_a_scenario_error(self):
        with pytest.raises(ScenarioError) as err:
            make_strategy("exhaustive", accelerate=True)
        message = str(err.value)
        assert "'accelerate'" in message and "stop_at_first" in message

    def test_var_keyword_constructor_accepts_any_option(self):
        @register_strategy("unit-kwargs")
        class UnitKwargs(RandomSearch):
            def __init__(self, max_samples=100, seed=0, **extra):
                super().__init__(max_samples=max_samples, seed=seed)
                self.extra = extra

        try:
            assert make_strategy("unit-kwargs", bogus=1).extra == {"bogus": 1}
        finally:
            registry_module._STRATEGIES.pop("unit-kwargs", None)

    def test_register_custom_strategy(self):
        @register_strategy("unit-greedy", "ug")
        class UnitGreedy(RandomSearch):
            name = "UNIT"

        try:
            assert "unit-greedy" in available_strategies()
            strat = make_strategy("ug", max_samples=3, seed=1)
            assert isinstance(strat, UnitGreedy)
            # Re-registering the same class is idempotent...
            register_strategy("unit-greedy")(UnitGreedy)
            # ...but stealing the name for another class is an error.
            with pytest.raises(ValueError, match="already registered"):
                register_strategy("unit-greedy")(HillClimb)
        finally:
            registry_module._STRATEGIES.pop("unit-greedy", None)
            registry_module._ALIASES.pop("ug", None)

    def test_register_rejects_non_strategy(self):
        with pytest.raises(TypeError):
            register_strategy("not-a-strategy")(object)

    def test_register_alias_matching_own_name_is_noop(self):
        # 'hill_climb' canonicalizes to the primary name itself; this must
        # not raise at (re-)registration time.
        register_strategy("hill-climb", "hill_climb")(HillClimb)
        assert strategy_class("hill_climb") is HillClimb

    def test_register_cannot_hijack_alias(self):
        # "bo" is an alias of ribbon; claiming it as a primary name must
        # fail just like claiming "ribbon" itself would.
        with pytest.raises(ValueError, match="already registered"):
            register_strategy("bo")(HillClimb)
        assert strategy_class("bo") is RibbonOptimizer


class TestBudgetPromotion:
    def test_budget_is_public(self):
        import repro
        import repro.core

        assert repro.Budget is Budget
        assert repro.core.Budget is Budget

    def test_unknown_attribute_still_raises(self):
        import repro.core.strategy as strategy_module

        with pytest.raises(AttributeError, match="no attribute"):
            strategy_module._NoSuchBudget


class TestScenarioValidation:
    def test_unknown_model_is_actionable(self):
        with pytest.raises(ScenarioError, match="MT-WND"):
            Scenario("BERT-Large")

    def test_model_name_is_canonicalized(self):
        assert Scenario("mt-wnd").model == "MT-WND"

    def test_empty_pool(self):
        with pytest.raises(ScenarioError, match="empty"):
            Scenario("MT-WND", pool=PoolSpec(families=()))

    def test_duplicate_families(self):
        with pytest.raises(ScenarioError, match="g4dn"):
            Scenario("MT-WND", pool=PoolSpec(families=("g4dn", "c5", "g4dn")))

    def test_unprofiled_family(self):
        with pytest.raises(ScenarioError, match="no latency profile"):
            Scenario("MT-WND", pool=PoolSpec(families=("g4dn", "p4d")))

    def test_non_positive_qos_latency(self):
        with pytest.raises(ScenarioError, match="latency_target_ms"):
            Scenario("MT-WND", qos=QoSSpec(latency_target_ms=0.0))

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5])
    def test_bad_qos_rate_target(self, rate):
        with pytest.raises(ScenarioError, match="rate_target"):
            Scenario("MT-WND", qos=QoSSpec(rate_target=rate))

    def test_bounds_families_mismatch(self):
        with pytest.raises(ScenarioError, match="match 1:1"):
            Scenario(
                "MT-WND", pool=PoolSpec(families=("g4dn", "c5"), bounds=(4,))
            )

    def test_bound_cap_is_capped_at_the_lattice_cap(self):
        assert PoolSpec(bound_cap=MAX_LATTICE_CELLS).bound_cap == MAX_LATTICE_CELLS
        for cap in (0, MAX_LATTICE_CELLS + 1):
            with pytest.raises(ScenarioError, match="bound_cap"):
                PoolSpec(bound_cap=cap)

    def test_bad_workload(self):
        with pytest.raises(ScenarioError, match="n_queries"):
            Scenario("MT-WND", workload=WorkloadSpec(n_queries=0))
        with pytest.raises(ScenarioError, match="load_factor"):
            Scenario("MT-WND", workload=WorkloadSpec(load_factor=0.0))

    def test_bad_budget(self):
        with pytest.raises(ScenarioError, match="max_samples"):
            Scenario("MT-WND", budget=EvaluationBudget(max_samples=0))

    def test_with_updates_are_validated(self):
        scenario = Scenario("MT-WND")
        assert scenario.with_workload(load_factor=1.5).workload.load_factor == 1.5
        with pytest.raises(ScenarioError):
            scenario.with_budget(max_samples=0)
        # The original is untouched (frozen value semantics).
        assert scenario.budget.max_samples == 40


SMALL = Scenario(
    model="MT-WND",
    workload=WorkloadSpec(n_queries=900, seed=1),
    pool=PoolSpec(families=("g4dn", "c5"), bounds=(5, 6)),
    budget=EvaluationBudget(max_samples=8),
)


class TestScenarioRunner:
    @pytest.fixture
    def no_materializing(self, monkeypatch):
        def build(runner, key):
            pytest.fail("materialized before the option check")

        monkeypatch.setattr(ScenarioRunner, "_build", build)

    def test_unknown_option_refused_before_materializing(self, no_materializing):
        # fresh_evaluator is no runner option: it reaches the registry check.
        for name, value in (("accelerate", True), ("fresh_evaluator", True)):
            with pytest.raises(ScenarioError) as err:
                Scenario("MT-WND").run("exhaustive", **{name: value})
            message = str(err.value)
            assert f"'{name}'" in message and "stop_at_first" in message

    def test_run_many_refuses_unknown_option_before_materializing(
        self, no_materializing
    ):
        # Sweeps are serial: parallel and max_workers are no options.
        runner = ScenarioRunner(SMALL)
        for name, value in (("bogus", 1), ("parallel", True), ("max_workers", 2)):
            with pytest.raises(ScenarioError, match=f"'{name}'.*accepted options"):
                runner.run_many("random", **{name: value})
        assert not runner._materialized

    def test_materialization_is_cached(self):
        runner = ScenarioRunner(SMALL)
        assert runner.materialize(0) is runner.materialize(0)
        # Pinned workload seed: every run seed shares one materialization.
        assert runner.materialize(0) is runner.materialize(5)

    def test_equal_scenarios_share_a_runner(self):
        a = runner_for(SMALL)
        b = runner_for(
            Scenario(
                model="MT-WND",
                workload=WorkloadSpec(n_queries=900, seed=1),
                pool=PoolSpec(families=("g4dn", "c5"), bounds=(5, 6)),
                budget=EvaluationBudget(max_samples=8),
            )
        )
        assert a is b

    def test_explicit_bounds_skip_estimation(self):
        mat = ScenarioRunner(SMALL).materialize(0)
        assert mat.space.families == ("g4dn", "c5")
        assert mat.space.bounds == (5, 6)

    def test_fork_shares_lattice(self):
        runner = ScenarioRunner(SMALL)
        forked = runner.fork(load_factor=1.5)
        assert forked.scenario.workload.load_factor == 1.5
        assert forked.materialize(0).space is runner.materialize(0).space
        assert forked.materialize(0).objective is runner.materialize(0).objective

    def test_fork_can_change_workload_seed(self):
        forked = ScenarioRunner(SMALL).fork(seed=2)
        assert forked.scenario.workload.seed == 2
        assert forked.materialize(0).trace_seed == 2

    def test_default_start_embeds_homogeneous_optimum(self):
        runner = ScenarioRunner(SMALL)
        start = runner.default_start()
        homog = runner.homogeneous_optimum()
        assert start.families == ("g4dn", "c5")
        assert start.counts == (
            min(homog.pool.counts[0], runner.materialize(0).space.bounds[0]),
            0,
        )

    def test_bad_start_is_actionable(self):
        runner = ScenarioRunner(SMALL)
        with pytest.raises(ScenarioError, match="start"):
            runner.run("random", seed=0, start=(99, 99))

    def test_homogeneous_optimum(self):
        record = ScenarioRunner(SMALL).homogeneous_optimum()
        assert record.meets_qos
        assert record.pool.families == ("g4dn",)

    def test_strategy_instance_passthrough(self):
        runner = ScenarioRunner(SMALL)
        by_name = runner.run("random", seed=2)
        by_instance = runner.run(RandomSearch(max_samples=8, seed=2))
        assert by_name.best.pool.counts == by_instance.best.pool.counts
        with pytest.raises(ScenarioError, match="kwargs"):
            runner.run(RandomSearch(max_samples=8, seed=2), patience=None)


def _fingerprint(result):
    return (
        result.method,
        result.best.pool.counts if result.best else None,
        round(result.best_cost, 9),
        [r.counts for r in result.history],
    )


class TestEquivalenceAndSweeps:
    def test_scenario_run_matches_hand_wired_pipeline(self):
        """`Scenario.run` is the old six-step wiring, verbatim."""
        model = get_model("MT-WND")
        trace = trace_for_model(model, n_queries=1500, seed=0)
        space = estimate_instance_bounds(model, trace, model.diverse_pool)
        objective = RibbonObjective(space)
        evaluator = ConfigurationEvaluator(model, trace, objective)
        expected = RibbonOptimizer(max_samples=12, seed=0).search(evaluator)

        got = Scenario(
            model="MT-WND",
            workload=WorkloadSpec(n_queries=1500),
            budget=EvaluationBudget(max_samples=12),
        ).run("ribbon", seed=0)
        assert got.best.pool == expected.best.pool
        assert [r.counts for r in got.history] == [
            r.counts for r in expected.history
        ]

    def test_run_many_is_seed_stable(self):
        runner = ScenarioRunner(SMALL)
        first = runner.run_many("ribbon", seeds=(0, 1, 2))
        second = runner.run_many("ribbon", seeds=(0, 1, 2))
        assert sorted(first) == [0, 1, 2]
        for seed in first:
            assert _fingerprint(first[seed]) == _fingerprint(second[seed])
        # Different seeds explore independently (not one shared trajectory).
        assert len({tuple(_fingerprint(r)[3]) for r in first.values()}) > 1

    def test_eval_duration_hours_drives_all_cost_accounting(self):
        """Exploration and exhaustive dollars must use the same clock."""
        billed = SMALL.with_budget(eval_duration_hours=10.0)
        result = billed.run("random", seed=0)
        spent = sum(r.cost_per_hour for r in result.history)
        assert result.exploration_cost_dollars == pytest.approx(10.0 * spent)
        assert 0.0 < result.exploration_cost_fraction() < 1.0

    def test_find_homogeneous_optimum_honors_callers_trace(self):
        """The back-compat wrapper must evaluate the trace it was given.

        A Gaussian-batch trace cannot be reconstructed from provenance, so
        replaying the returned pool on the caller's trace must reproduce
        the returned record exactly.
        """
        from repro.analysis.experiments import find_homogeneous_optimum
        from repro.simulator.engine import InferenceServingSimulator

        model = get_model("MT-WND")
        trace = trace_for_model(model, n_queries=1200, seed=3, gaussian=True)
        record = find_homogeneous_optimum(model, trace)
        replay = InferenceServingSimulator(model).simulate(trace, record.pool)
        assert replay.qos_satisfaction_rate(model.qos_target_ms) == record.qos_rate

    def test_run_many_rejects_bad_seeds_and_instances(self):
        runner = ScenarioRunner(SMALL)
        with pytest.raises(ScenarioError, match="at least one"):
            runner.run_many("random", seeds=())
        with pytest.raises(ScenarioError, match="duplicate"):
            runner.run_many("random", seeds=(1, 1))
        with pytest.raises(ScenarioError, match="name"):
            runner.run_many(RandomSearch(max_samples=8, seed=0))


class TestSerialization:
    """Scenario <-> dict wire format (the service's submission body)."""

    def test_round_trip_is_identity(self):
        scenario = Scenario(
            "MT-WND",
            workload=WorkloadSpec(n_queries=900, seed=4, load_factor=1.5),
            qos=QoSSpec(rate_target=0.95),
            pool=PoolSpec(families=("g4dn", "t3"), bounds=(3, 5)),
            budget=EvaluationBudget(max_samples=12, batch_size=2),
        )
        doc = scenario.to_dict()
        # The document is pure JSON: survives an actual encode/decode.
        assert Scenario.from_dict(json.loads(json.dumps(doc))) == scenario
        assert Scenario.from_dict(doc).identity() == scenario.identity()

    def test_partial_document_keeps_defaults(self):
        scenario = Scenario.from_dict({"model": "DIEN"})
        assert scenario == Scenario("DIEN")
        partial = Scenario.from_dict(
            {"model": "DIEN", "workload": {"n_queries": 777}}
        )
        assert partial.workload.n_queries == 777
        assert partial.budget == Scenario("DIEN").budget

    def test_none_valued_fields_mean_defaults(self):
        scenario = Scenario.from_dict(
            {"model": "MT-WND", "workload": {"seed": None}, "qos": None}
        )
        assert scenario == Scenario("MT-WND")

    def test_identity_is_stable_and_discriminating(self):
        a = Scenario("MT-WND")
        assert a.identity() == Scenario("MT-WND").identity()
        assert len(a.identity()) == 16
        changed = [
            a.with_workload(load_factor=1.2),
            a.with_workload(seed=9),
            replace(a, qos=QoSSpec(rate_target=0.95)),
            a.with_budget(max_samples=41),
            Scenario("DIEN"),
        ]
        identities = {a.identity(), *[s.identity() for s in changed]}
        assert len(identities) == len(changed) + 1

    def test_non_object_document_rejected(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            Scenario.from_dict(["MT-WND"])
        with pytest.raises(ScenarioError, match="JSON object"):
            Scenario.from_dict({"model": "MT-WND", "workload": [1, 2]})

    def test_missing_model_rejected(self):
        with pytest.raises(ScenarioError, match="model"):
            Scenario.from_dict({"workload": {"n_queries": 10}})

    def test_unknown_fields_named_in_error(self):
        with pytest.raises(ScenarioError, match="workloud"):
            Scenario.from_dict({"model": "MT-WND", "workloud": {}})
        with pytest.raises(ScenarioError, match="n_querys.*n_queries"):
            Scenario.from_dict(
                {"model": "MT-WND", "workload": {"n_querys": 10}}
            )

    def test_families_and_bounds_must_be_arrays(self):
        with pytest.raises(ScenarioError, match="array"):
            Scenario.from_dict(
                {"model": "MT-WND", "pool": {"families": "g4dn"}}
            )
        with pytest.raises(ScenarioError, match="array"):
            Scenario.from_dict({"model": "MT-WND", "pool": {"bounds": 4}})

    def test_bad_values_surface_builder_validation(self):
        with pytest.raises(ScenarioError, match="n_queries"):
            Scenario.from_dict(
                {"model": "MT-WND", "workload": {"n_queries": -5}}
            )
        with pytest.raises(ScenarioError, match="model"):
            Scenario.from_dict({"model": "NO-SUCH-MODEL"})

    @given(
        n_queries=st.integers(min_value=1, max_value=100_000),
        seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
        load_factor=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
        gaussian=st.booleans(),
        rate_target=st.floats(min_value=0.5, max_value=1.0, allow_nan=False),
        bounds=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=1, max_value=16),
                st.integers(min_value=1, max_value=16),
            ),
        ),
        max_samples=st.integers(min_value=1, max_value=500),
        batch_size=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(
        self,
        n_queries,
        seed,
        load_factor,
        gaussian,
        rate_target,
        bounds,
        max_samples,
        batch_size,
    ):
        """Any valid scenario survives to_dict -> JSON -> from_dict intact."""
        scenario = Scenario(
            "MT-WND",
            workload=WorkloadSpec(
                n_queries=n_queries,
                seed=seed,
                load_factor=load_factor,
                gaussian=gaussian,
            ),
            qos=QoSSpec(rate_target=rate_target),
            pool=(
                PoolSpec(families=("g4dn", "t3"), bounds=bounds)
                if bounds is not None
                else PoolSpec()
            ),
            budget=EvaluationBudget(max_samples=max_samples, batch_size=batch_size),
        )
        wire = json.loads(json.dumps(scenario.to_dict()))
        rebuilt = Scenario.from_dict(wire)
        assert rebuilt == scenario
        assert rebuilt.identity() == scenario.identity()
        assert rebuilt.to_dict() == scenario.to_dict()
