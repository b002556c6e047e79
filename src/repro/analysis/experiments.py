"""Shared experiment plumbing for the evaluation harness.

A :class:`ModelExperiment` bundles everything one model's experiments need:
the trace, the search space over the Table 3 diverse pool, the Eq. 2
objective, a shared (cached) evaluator, the homogeneous baseline, and the
exhaustive ground-truth optimum.  All of it is materialized through the
declarative :mod:`repro.api` — an :class:`ExperimentSetting` maps 1:1 onto
a :class:`~repro.api.Scenario`, and strategies come from the registry by
name.  Building the experiment once per model and reusing it across figures
keeps the full benchmark suite fast — repeated configuration evaluations
hit the evaluator cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.registry import make_strategy
from repro.api.runner import ScenarioRunner, scan_homogeneous
from repro.api.scenario import (
    EvaluationBudget,
    PoolSpec,
    QoSSpec,
    Scenario,
    WorkloadSpec,
)
from repro.core.evaluator import ConfigurationEvaluator, EvaluationRecord
from repro.core.objective import ObjectiveFunction, RibbonObjective
from repro.core.result import SearchResult
from repro.core.search_space import SearchSpace
from repro.core.strategy import SearchStrategy
from repro.models.base import ModelProfile
from repro.simulator.pool import PoolConfiguration
from repro.workload.trace import QueryTrace


@dataclass(frozen=True)
class ExperimentSetting:
    """Knobs shared by all experiments (kept small for bench runtimes)."""

    n_queries: int = 4000
    seed: int = 1
    qos_rate_target: float = 0.99
    load_factor: float = 1.0
    gaussian_batches: bool = False
    qos_target_ms: float | None = None

    def scenario(
        self,
        model_name: str,
        *,
        families: tuple[str, ...] | None = None,
        bound_cap: int = 16,
        max_samples: int = 40,
    ) -> Scenario:
        """The :class:`~repro.api.Scenario` these settings describe."""
        return Scenario(
            model=model_name,
            workload=WorkloadSpec(
                n_queries=self.n_queries,
                seed=self.seed,
                load_factor=self.load_factor,
                gaussian=self.gaussian_batches,
            ),
            qos=QoSSpec(
                latency_target_ms=self.qos_target_ms,
                rate_target=self.qos_rate_target,
            ),
            pool=PoolSpec(families=families, bound_cap=bound_cap),
            budget=EvaluationBudget(max_samples=max_samples),
        )


@dataclass
class ModelExperiment:
    """One model's fully wired experiment context."""

    model: ModelProfile
    trace: QueryTrace
    space: SearchSpace
    objective: ObjectiveFunction
    evaluator: ConfigurationEvaluator
    homogeneous_optimum: EvaluationRecord
    setting: ExperimentSetting
    scenario: Scenario | None = None
    runner: ScenarioRunner | None = field(default=None, repr=False)
    _ground_truth: EvaluationRecord | None = field(default=None, repr=False)

    @property
    def homogeneous_cost(self) -> float:
        """Hourly cost of the optimal homogeneous pool (the Fig. 9 baseline)."""
        return self.homogeneous_optimum.cost_per_hour

    def ground_truth(self) -> EvaluationRecord:
        """Exhaustive-search optimum of the diverse space (cached)."""
        if self._ground_truth is None:
            result = make_strategy("exhaustive").search(self.evaluator)
            if result.best is None:
                raise RuntimeError(
                    f"no QoS-meeting configuration exists in {self.space}"
                )
            self._ground_truth = result.best
        return self._ground_truth

    def max_saving_percent(self) -> float:
        """Cost saving of the exhaustive optimum over the homogeneous one."""
        best = self.ground_truth()
        return 100.0 * (1.0 - best.cost_per_hour / self.homogeneous_cost)

    def default_start(self) -> PoolConfiguration:
        """Common start point handed to every strategy.

        The paper's scenario: the service "is already running at minimal
        cost on a specific instance type" — so every search starts from the
        homogeneous optimum embedded in the diverse space.  Delegates to
        :meth:`ScenarioRunner.default_start` (experiments are always built
        runner-backed by :func:`make_experiment`).
        """
        if self.runner is None:
            raise ValueError(
                "default_start needs a runner-backed experiment; build it "
                "with make_experiment()"
            )
        return self.runner.default_start(seed=self.setting.seed)


def find_homogeneous_optimum(
    model: ModelProfile,
    trace: QueryTrace,
    *,
    family: str | None = None,
    qos_rate_target: float = 0.99,
    qos_target_ms: float | None = None,
    max_count: int = 24,
) -> EvaluationRecord:
    """Smallest homogeneous pool of ``family`` that meets the QoS.

    This is the deployment the paper assumes as the starting point
    ("already running at minimal cost on a specific instance type").
    Back-compat wrapper over the api's :func:`scan_homogeneous`: unlike
    the declarative path (:meth:`ScenarioRunner.homogeneous_optimum`,
    which resolves the model by zoo name), this accepts an *arbitrary*
    profile and trace — including customized catalogs, latency targets,
    and batch distributions no scenario provenance could express.
    """
    fam = family if family is not None else model.homogeneous_family
    target_ms = qos_target_ms if qos_target_ms is not None else model.qos_target_ms
    objective = RibbonObjective(
        SearchSpace((fam,), (max_count,), catalog=model.catalog), qos_rate_target
    )
    evaluator = ConfigurationEvaluator(
        model, trace, objective, qos_target_ms=target_ms
    )
    record = scan_homogeneous(evaluator, fam, max_count)
    if record is None:
        raise RuntimeError(
            f"{max_count} x {fam} still violates the {target_ms:g} ms QoS "
            f"for {model.name}; the workload is beyond the searchable capacity"
        )
    return record


def make_experiment(
    model_name: str,
    setting: ExperimentSetting = ExperimentSetting(),
    *,
    families: tuple[str, ...] | None = None,
    bound_cap: int = 16,
) -> ModelExperiment:
    """Wire up the full experiment context for one Table 1 model.

    Declares the setting as a :class:`~repro.api.Scenario` and lets its
    :class:`~repro.api.ScenarioRunner` materialize the trace, the measured
    search space, the Eq. 2 objective, and the shared evaluator.
    """
    scenario = setting.scenario(
        model_name, families=families, bound_cap=bound_cap
    )
    runner = ScenarioRunner(scenario)
    mat = runner.materialize(setting.seed)
    homog = runner.homogeneous_optimum(seed=setting.seed)
    return ModelExperiment(
        model=mat.model,
        trace=mat.trace,
        space=mat.space,
        objective=mat.objective,
        evaluator=mat.evaluator,
        homogeneous_optimum=homog,
        setting=setting,
        scenario=scenario,
        runner=runner,
    )


@dataclass(frozen=True)
class CostSavingsRow:
    """One Fig. 9 / Fig. 11 / Fig. 15 bar."""

    model: str
    homogeneous_pool: str
    homogeneous_cost: float
    heterogeneous_pool: str
    heterogeneous_cost: float
    saving_percent: float


def cost_savings_experiment(
    model_names: tuple[str, ...] = ("CANDLE", "ResNet50", "VGG19", "MT-WND", "DIEN"),
    setting: ExperimentSetting = ExperimentSetting(),
) -> list[CostSavingsRow]:
    """Fig. 9 (and 11/15 via ``setting``): optimal hetero vs homo cost."""
    rows: list[CostSavingsRow] = []
    for name in model_names:
        exp = make_experiment(name, setting)
        best = exp.ground_truth()
        rows.append(
            CostSavingsRow(
                model=name,
                homogeneous_pool=str(exp.homogeneous_optimum.pool),
                homogeneous_cost=exp.homogeneous_cost,
                heterogeneous_pool=str(best.pool),
                heterogeneous_cost=best.cost_per_hour,
                saving_percent=exp.max_saving_percent(),
            )
        )
    return rows


#: Registry names of the paper's four competing techniques (Sec. 5.3),
#: with the per-method extra knobs the comparison uses.
COMPARISON_METHODS: tuple[tuple[str, dict], ...] = (
    ("ribbon", {"patience": None}),
    ("hill-climb", {}),
    ("random", {}),
    ("rsm", {}),
)


def default_strategies(
    max_samples: int = 120, seed: int = 0
) -> list[SearchStrategy]:
    """The paper's four competing techniques with a common budget.

    Built from the strategy registry.  Early stopping (patience) is
    disabled for Ribbon so every method runs until it finds the optimum or
    exhausts the shared budget — the Fig. 10/13/14 metrics are all "until
    the optimum was reached" quantities.
    """
    return [
        make_strategy(name, max_samples=max_samples, seed=seed, **extra)
        for name, extra in COMPARISON_METHODS
    ]


def search_comparison(
    exp: ModelExperiment,
    *,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_samples: int = 120,
) -> dict[str, list[SearchResult]]:
    """Run all four strategies over several seeds on one experiment.

    Returns ``{method name: [result per seed]}``; the shared evaluator cache
    makes repeat evaluations free, so this is much cheaper than it looks.
    """
    out: dict[str, list[SearchResult]] = {}
    start = exp.default_start()
    for seed in seeds:
        for strat in default_strategies(max_samples=max_samples, seed=seed):
            result = strat.search(exp.evaluator, start=start)
            out.setdefault(strat.name, []).append(result)
    return out


def mean_samples_to_saving(
    results: list[SearchResult],
    homogeneous_cost: float,
    saving_percent: float,
    *,
    penalty_samples: int | None = None,
) -> float:
    """Average samples-to-reach a saving level over seeds (Fig. 10).

    Runs that never reach the level contribute ``penalty_samples`` (their
    budget) — mirroring how the paper reports methods that converge slowly.
    """
    vals: list[float] = []
    for res in results:
        n = res.samples_to_saving(homogeneous_cost, saving_percent)
        if n is None:
            n = penalty_samples if penalty_samples is not None else res.n_samples
        vals.append(float(n))
    return sum(vals) / len(vals) if vals else float("nan")
