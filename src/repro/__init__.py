"""Ribbon (SC'21) reproduction.

A from-scratch implementation of *Ribbon: Cost-Effective and QoS-Aware Deep
Learning Model Inference using a Diverse Pool of Cloud Computing Instances*
(Li et al., SC 2021), including every substrate the paper depends on: the
AWS instance catalog, analytic model latency profiles, a production-style
workload generator, a discrete-event FCFS serving simulator, a
Gaussian-process library, the BO-based Ribbon optimizer, and all competing
baselines.

The front door is the declarative :mod:`repro.api`: a frozen
:class:`~repro.api.Scenario` describes *what* to search (model, workload,
QoS, pool, budget), the strategy registry names *how*
(``"ribbon"``, ``"hill-climb"``, ``"random"``, ``"rsm"``,
``"exhaustive"``), and a cached :class:`~repro.api.ScenarioRunner`
materializes the pipeline exactly once per workload.

Quickstart::

    from repro import EvaluationBudget, Scenario, WorkloadSpec

    result = Scenario("MT-WND").run("ribbon", seed=0)
    print(result.summary())

    # multi-seed sweep on a fixed workload
    sweep = Scenario(
        "DIEN",
        workload=WorkloadSpec(n_queries=4000, seed=1),
        budget=EvaluationBudget(max_samples=45),
    ).run_many("ribbon", seeds=(0, 1, 2))

See ``examples/`` for full scenarios and ``benchmarks/`` for the harness
that regenerates every table and figure of the paper's evaluation.
"""

from repro.cloud import DEFAULT_CATALOG, InstanceSpec, get_instance
from repro.models import MODEL_ZOO, ModelProfile, get_model
from repro.workload import QueryTrace, trace_for_model
from repro.simulator import InferenceServingSimulator, PoolConfiguration
from repro.core import (
    Budget,
    ConfigurationEvaluator,
    LoadAdaptiveRibbon,
    RibbonObjective,
    RibbonOptimizer,
    SearchSpace,
    SearchStrategy,
    estimate_instance_bounds,
    select_diverse_pool,
)
from repro.core.result import SearchResult
from repro.baselines import (
    ExhaustiveSearch,
    HillClimb,
    RandomSearch,
    ResponseSurface,
    find_optimal_configuration,
)
from repro.api import (
    EvaluationBudget,
    PoolSpec,
    QoSSpec,
    Scenario,
    ScenarioError,
    ScenarioRunner,
    WorkloadSpec,
    available_strategies,
    make_strategy,
    register_strategy,
)

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_CATALOG",
    "InstanceSpec",
    "get_instance",
    "MODEL_ZOO",
    "ModelProfile",
    "get_model",
    "QueryTrace",
    "trace_for_model",
    "InferenceServingSimulator",
    "PoolConfiguration",
    "Budget",
    "ConfigurationEvaluator",
    "RibbonObjective",
    "RibbonOptimizer",
    "LoadAdaptiveRibbon",
    "SearchSpace",
    "SearchStrategy",
    "estimate_instance_bounds",
    "select_diverse_pool",
    "SearchResult",
    "RandomSearch",
    "HillClimb",
    "ResponseSurface",
    "ExhaustiveSearch",
    "find_optimal_configuration",
    "EvaluationBudget",
    "PoolSpec",
    "QoSSpec",
    "Scenario",
    "ScenarioError",
    "ScenarioRunner",
    "WorkloadSpec",
    "available_strategies",
    "make_strategy",
    "register_strategy",
]

