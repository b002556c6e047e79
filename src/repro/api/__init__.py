"""The declarative front door of the Ribbon reproduction.

Two ideas, one entry point:

* a frozen :class:`Scenario` value object (model + workload + QoS + pool +
  budget) with front-loaded validation, materialized lazily — and exactly
  once — by a :class:`ScenarioRunner`;
* a strategy registry mapping canonical names (``"ribbon"``,
  ``"hill-climb"``, ``"random"``, ``"rsm"``, ``"exhaustive"``) to
  :class:`~repro.core.strategy.SearchStrategy` classes, so every consumer
  selects algorithms by name and new optimizers plug in with
  :func:`register_strategy`.

Quickstart::

    from repro.api import EvaluationBudget, Scenario, WorkloadSpec

    result = Scenario("MT-WND").run("ribbon", seed=0)
    print(result.summary())

    sweep = Scenario(
        "DIEN",
        workload=WorkloadSpec(n_queries=4000, seed=1),
        budget=EvaluationBudget(max_samples=45),
    ).run_many("ribbon", seeds=(0, 1, 2))
"""

from repro.api.registry import (
    StrategyOption,
    UnknownStrategyError,
    available_strategies,
    make_strategy,
    register_strategy,
    strategy_class,
    strategy_options,
)
from repro.api.runner import MaterializedScenario, ScenarioRunner, runner_for
from repro.api.scenario import (
    EvaluationBudget,
    PoolSpec,
    QoSSpec,
    Scenario,
    ScenarioError,
    WorkloadSpec,
)

__all__ = [
    "EvaluationBudget",
    "MaterializedScenario",
    "PoolSpec",
    "QoSSpec",
    "Scenario",
    "ScenarioError",
    "ScenarioRunner",
    "StrategyOption",
    "UnknownStrategyError",
    "WorkloadSpec",
    "available_strategies",
    "make_strategy",
    "register_strategy",
    "runner_for",
    "strategy_class",
    "strategy_options",
]
