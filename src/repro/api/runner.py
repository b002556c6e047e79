"""Scenario execution: materialize once, search many times.

A :class:`ScenarioRunner` turns a declarative :class:`~repro.api.scenario.
Scenario` into the concrete pipeline exactly once per trace seed — generate
the trace, size the search space, build the Eq. 2 objective and the cached
evaluator — and then runs any number of registered strategies against that
materialization: single runs (:meth:`ScenarioRunner.run`), multi-seed
sweeps (:meth:`ScenarioRunner.run_many`), load-change forks sharing one
lattice (:meth:`ScenarioRunner.fork`), and the homogeneous-baseline scan
(:meth:`ScenarioRunner.homogeneous_optimum`).

Equal scenarios share one runner through :func:`runner_for`, so repeated
``Scenario.run`` calls hit the same evaluator cache instead of re-simulating
configurations the service already deployed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace

from repro.api.registry import check_strategy_options, make_strategy, strategy_options
from repro.api.scenario import PoolSpec, Scenario, ScenarioError
from repro.core.evaluator import ConfigurationEvaluator, EvaluationRecord
from repro.core.objective import RibbonObjective
from repro.core.result import SearchResult
from repro.core.search_space import SearchSpace, estimate_instance_bounds
from repro.core.strategy import SearchStrategy
from repro.models.base import ModelProfile
from repro.simulator.engine import InferenceServingSimulator, global_dispatch_counters
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import (
    SimulationResultCache,
    shared_simulation_cache,
)
from repro.simulator.service import ServiceTimeCache, shared_service_cache
from repro.workload.trace import QueryTrace, trace_for_model

__all__ = [
    "MaterializedScenario",
    "ScenarioRunner",
    "runner_for",
    "scan_homogeneous",
]


def scan_homogeneous(
    evaluator: ConfigurationEvaluator, family: str, max_count: int
) -> EvaluationRecord | None:
    """Smallest ``family`` count in ``1..max_count`` meeting QoS, or None.

    The paper's homogeneous-baseline rule: grow a single-family pool until
    the QoS contract holds.  The evaluator's search space must be the
    one-dimensional ``(family,)`` lattice.
    """
    for count in range(1, int(max_count) + 1):
        record = evaluator.evaluate(PoolConfiguration.homogeneous(family, count))
        if record.meets_qos:
            return record
    return None


@dataclass(frozen=True)
class MaterializedScenario:
    """A scenario turned into live pipeline objects for one trace seed."""

    scenario: Scenario
    trace_seed: int
    model: ModelProfile
    trace: QueryTrace
    space: SearchSpace
    objective: RibbonObjective
    evaluator: ConfigurationEvaluator

    def fresh_evaluator(self) -> ConfigurationEvaluator:
        """A fork on the same trace with an empty record cache."""
        return self.evaluator.fork(self.trace)


class ScenarioRunner:
    """Materializes a :class:`Scenario` and drives searches against it.

    Parameters
    ----------
    scenario:
        The validated scenario to execute.
    space, objective:
        Pre-built lattice/objective to reuse instead of measuring bounds —
        set by :meth:`fork` so load-change phases share one search space.
    service_cache:
        Service-time matrix cache handed to every evaluator this runner
        builds; defaults to the process-wide shared cache.  :meth:`fork`
        propagates the parent's cache so load-change phases share it.
    simulation_cache:
        Whole-simulation result memo handed to every evaluator this
        runner builds; defaults to the process-wide shared cache, making
        overlapping configurations free across seeds of a
        :meth:`run_many` sweep and across load-change forks.  Pass
        ``SimulationResultCache(maxsize=0)`` to opt out of memoization
        (every evaluation re-simulates).  :meth:`cache_stats` reports
        hit/miss/eviction counters for both caches plus the process-wide
        dispatch-path counts.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        space: SearchSpace | None = None,
        objective: RibbonObjective | None = None,
        service_cache: ServiceTimeCache | None = None,
        simulation_cache: SimulationResultCache | None = None,
    ):
        if not isinstance(scenario, Scenario):
            raise ScenarioError(
                f"ScenarioRunner expects a Scenario, got {type(scenario).__name__}"
            )
        self.scenario = scenario
        self._shared_space = space
        self._shared_objective = objective
        self._service_cache = (
            service_cache if service_cache is not None else shared_service_cache()
        )
        self._simulation_cache = (
            simulation_cache
            if simulation_cache is not None
            else shared_simulation_cache()
        )
        # LRU per trace seed: materializations hold full traces and every
        # simulated record, so a wide follow-seed sweep must not pin them
        # all (the module-level runner cache keeps runners alive).
        self._materialized: OrderedDict[int, MaterializedScenario] = OrderedDict()
        self._homogeneous: dict[tuple[str, int, int], EvaluationRecord] = {}
        self._lock = threading.Lock()

    #: Materializations kept per runner (LRU by trace seed).
    MATERIALIZATION_CACHE_SIZE = 32

    # -- materialization ------------------------------------------------------------
    def materialize(self, seed: int = 0) -> MaterializedScenario:
        """Build (or fetch the cached) pipeline for the run seed ``seed``.

        The cache is keyed by the *effective trace seed* (the pinned
        workload seed, or ``seed`` when the workload follows the run seed),
        so a pinned-workload scenario materializes exactly once no matter
        how many search seeds sweep over it.
        """
        key = self.scenario.trace_seed(seed)
        with self._lock:
            mat = self._materialized.get(key)
            if mat is None:
                mat = self._build(key)
                self._materialized[key] = mat
            self._materialized.move_to_end(key)
            while len(self._materialized) > self.MATERIALIZATION_CACHE_SIZE:
                self._materialized.popitem(last=False)
            return mat

    def _materialize_with_trace(
        self, trace_seed: int, trace: QueryTrace
    ) -> MaterializedScenario:
        """Like :meth:`materialize`, reusing an already-generated trace.

        The trace must be the one this scenario's workload would generate
        for ``trace_seed`` (used by the homogeneous scan, whose scenario
        shares the parent's workload verbatim).
        """
        with self._lock:
            mat = self._materialized.get(trace_seed)
            if mat is None:
                mat = self._build(trace_seed, trace=trace)
                self._materialized[trace_seed] = mat
            return mat

    def _build(
        self, trace_seed: int, trace: QueryTrace | None = None
    ) -> MaterializedScenario:
        scn = self.scenario
        model = scn.profile
        if trace is None:
            trace = trace_for_model(
                model,
                n_queries=scn.workload.n_queries,
                seed=trace_seed,
                load_factor=scn.workload.load_factor,
                gaussian=scn.workload.gaussian,
            )
        target_ms = scn.qos_target_ms
        if self._shared_space is not None:
            space = self._shared_space
        elif scn.pool.bounds is not None:
            space = SearchSpace(scn.families, scn.pool.bounds, catalog=model.catalog)
        else:
            try:
                space = estimate_instance_bounds(
                    model,
                    trace,
                    scn.families,
                    qos_target_ms=target_ms,
                    hard_cap=scn.pool.bound_cap,
                    catalog=model.catalog,
                    # Bound simulations honor this runner's caches.
                    simulator=InferenceServingSimulator(
                        model,
                        service_cache=self._service_cache,
                        result_cache=self._simulation_cache,
                    ),
                )
            except ValueError as exc:
                # The scenario is validated, so only the lattice cap on the
                # measured bounds can refuse here.
                raise ScenarioError(
                    f"measured pool bounds for {model.name}: {exc}; lower "
                    "bound_cap or search fewer families"
                ) from None
        objective = (
            self._shared_objective
            if self._shared_objective is not None
            else RibbonObjective(space, scn.qos.rate_target)
        )
        evaluator = ConfigurationEvaluator(
            model,
            trace,
            objective,
            qos_target_ms=target_ms,
            eval_duration_hours=scn.budget.eval_duration_hours,
            service_cache=self._service_cache,
            result_cache=self._simulation_cache,
        )
        return MaterializedScenario(
            scenario=scn,
            trace_seed=trace_seed,
            model=model,
            trace=trace,
            space=space,
            objective=objective,
            evaluator=evaluator,
        )

    # -- cache introspection ----------------------------------------------------------
    @property
    def simulation_cache(self) -> SimulationResultCache:
        """The whole-simulation memo this runner's evaluators share."""
        return self._simulation_cache

    @property
    def service_cache(self) -> ServiceTimeCache:
        """The service-time matrix cache this runner's evaluators share."""
        return self._service_cache

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/eviction counters of both caches, plus the
        dispatch-path run counts.

        Keys: ``"simulation"`` (the :class:`SimulationResultCache` —
        whole-result reuse across seeds/forks), ``"service"`` (the
        :class:`ServiceTimeCache` — per-workload service-time matrices)
        and ``"dispatch"`` (per-loop run counts from
        :func:`~repro.simulator.engine.global_dispatch_counters`;
        result-memo hits never dispatch).  Every counter is cumulative:
        with the default process-wide caches, and always for the dispatch
        counts, that spans every runner in the process, not just this
        one.
        """
        return {
            "simulation": self._simulation_cache.stats(),
            "service": self._service_cache.stats(),
            "dispatch": global_dispatch_counters().snapshot(),
        }

    # -- search ---------------------------------------------------------------------
    def run(
        self,
        strategy: str | SearchStrategy = "ribbon",
        *,
        seed: int = 0,
        start: PoolConfiguration | Sequence[int] | None = None,
        progress: "Callable[[EvaluationRecord], None] | None" = None,
        **strategy_kwargs,
    ) -> SearchResult:
        """Run one search and return its :class:`SearchResult`.

        Parameters
        ----------
        strategy:
            A registered strategy name (see :func:`repro.api.
            available_strategies`) or an already-built strategy instance.
        seed:
            Strategy seed; also the trace seed when the workload follows
            the run seed.
        start:
            Optional start configuration — a :class:`PoolConfiguration` or
            a per-family count vector.
        progress:
            Optional observer called with each newly admitted
            :class:`EvaluationRecord` as the search runs (the optimization
            service's live-progress/cancellation hook).  Implies a fresh
            evaluator — a record another run already admitted would be a
            cache hit and never reach the observer — and an exception
            raised by the observer aborts the search and propagates to the
            caller.
        strategy_kwargs:
            Extra constructor knobs for the strategy (``patience=None``,
            ``use_pruning=False``, ...).  ``max_samples`` defaults to the
            scenario budget; ``seed`` defaults to ``seed``.  A name the
            strategy's constructor lacks raises
            :class:`~repro.api.scenario.ScenarioError` before anything is
            materialized.
        """
        strat = self._make_strategy(strategy, seed, strategy_kwargs)
        mat = self.materialize(seed)
        if progress is not None:
            evaluator = mat.fresh_evaluator()
            evaluator.on_record = progress
        else:
            evaluator = mat.evaluator
        return strat.search(evaluator, start=self._resolve_start(mat, start))

    def run_many(
        self,
        strategy: str | SearchStrategy = "ribbon",
        *,
        seeds: Iterable[int] = (0, 1, 2),
        start: PoolConfiguration | Sequence[int] | None = None,
        **strategy_kwargs,
    ) -> dict[int, SearchResult]:
        """Sweep the scenario over several seeds; returns ``{seed: result}``.

        Seeds run one after another, each against its own forked
        evaluator, so a seed's result does not depend on which seeds ran
        before it.  Strategy instances cannot be swept (one instance holds
        per-run state); pass a registry name instead.  Option names are
        checked, as in :meth:`run`, before any seed materializes.
        """
        seed_list = [int(s) for s in seeds]
        if not seed_list:
            raise ScenarioError("run_many needs at least one seed")
        if len(set(seed_list)) != len(seed_list):
            raise ScenarioError(f"run_many seeds contain duplicates: {seed_list}")
        if isinstance(strategy, SearchStrategy):
            raise ScenarioError(
                "run_many needs a strategy *name* (a fresh instance is built "
                "per seed); got an instance"
            )
        check_strategy_options(strategy, strategy_kwargs)
        results = {}
        for s in seed_list:
            mat = self.materialize(s)
            strat = self._make_strategy(strategy, s, dict(strategy_kwargs))
            results[s] = strat.search(
                mat.fresh_evaluator(), start=self._resolve_start(mat, start)
            )
        return results

    def _make_strategy(
        self,
        strategy: str | SearchStrategy,
        seed: int,
        strategy_kwargs: dict,
    ) -> SearchStrategy:
        if isinstance(strategy, SearchStrategy):
            if strategy_kwargs:
                raise ScenarioError(
                    "strategy kwargs only apply to registry names; got both "
                    f"an instance and {sorted(strategy_kwargs)}"
                )
            return strategy
        strategy_kwargs.setdefault("max_samples", self.scenario.budget.max_samples)
        strategy_kwargs.setdefault("seed", seed)
        # The scenario's batch size reaches every strategy that can batch
        # (Ribbon's q-EI proposals); strategies without the knob — the
        # sequential baselines — are left untouched rather than broken.
        batch_size = self.scenario.budget.batch_size
        if batch_size != 1 and any(
            opt.name == "batch_size" for opt in strategy_options(strategy)
        ):
            strategy_kwargs.setdefault("batch_size", batch_size)
        return make_strategy(strategy, **strategy_kwargs)

    def _resolve_start(
        self,
        mat: MaterializedScenario,
        start: PoolConfiguration | Sequence[int] | None,
    ) -> PoolConfiguration | None:
        if start is None:
            return None
        if isinstance(start, PoolConfiguration):
            if not mat.space.contains(start):
                raise ScenarioError(
                    f"start {start} is outside the search space {mat.space}"
                )
            return start
        counts = tuple(int(c) for c in start)
        try:
            return mat.space.pool(counts)
        except ValueError as exc:
            raise ScenarioError(f"bad start vector {counts}: {exc}") from None

    # -- derived scenarios ------------------------------------------------------------
    def fork(
        self, *, materialize_seed: int = 0, **workload_changes
    ) -> "ScenarioRunner":
        """A runner for a workload variant sharing *this* runner's lattice.

        ``workload_changes`` are :class:`~repro.api.scenario.WorkloadSpec`
        fields — ``load_factor``, ``seed``, ``n_queries``, ``gaussian`` —
        applied to a copy of the scenario; ``materialize_seed`` picks which
        of *this* runner's materializations donates the shared space.

        The load-change pattern of Sec. 4: size the space once (on whichever
        phase this runner represents), then fork to the other load so both
        phases search the same lattice with the same objective::

            surge = Scenario("DIEN", workload=WorkloadSpec(load_factor=1.5))
            hi = surge.runner()
            lo = hi.fork(load_factor=1.0)   # same space, base-load trace
        """
        mat = self.materialize(materialize_seed)
        forked = self.scenario.with_workload(**workload_changes)
        return ScenarioRunner(
            forked,
            space=mat.space,
            objective=mat.objective,
            service_cache=self._service_cache,
            simulation_cache=self._simulation_cache,
        )

    def homogeneous_optimum(
        self,
        family: str | None = None,
        *,
        seed: int = 0,
        max_count: int = 24,
    ) -> EvaluationRecord:
        """Smallest single-family pool meeting the QoS (the paper's baseline).

        Scans ``1..max_count`` instances of ``family`` (default: the model's
        Table 3 homogeneous family) on this scenario's workload and QoS.
        Memoized per (family, trace seed, max_count).
        """
        fam = family if family is not None else self.scenario.profile.homogeneous_family
        key = (fam, self.scenario.trace_seed(seed), int(max_count))
        # Runners are shared across threads (runner_for, the job manager),
        # so the memo follows the same lock discipline as _materialized.
        with self._lock:
            hit = self._homogeneous.get(key)
        if hit is not None:
            return hit
        single = replace(
            self.scenario,
            pool=PoolSpec(families=(fam,), bounds=(int(max_count),)),
        )
        # The single-family scenario shares this runner's workload, so when
        # this runner already materialized (make_experiment does), its trace
        # is reused; otherwise the scan generates its own without forcing
        # the parent's (possibly expensive) bound estimation.  Caches
        # carry over: the scan must honor the parent's memo opt-out.
        single_runner = ScenarioRunner(
            single,
            service_cache=self._service_cache,
            simulation_cache=self._simulation_cache,
        )
        with self._lock:
            base = self._materialized.get(self.scenario.trace_seed(seed))
        if base is not None:
            mat = single_runner._materialize_with_trace(base.trace_seed, base.trace)
        else:
            mat = single_runner.materialize(seed)
        record = scan_homogeneous(mat.evaluator, fam, max_count)
        if record is None:
            raise ScenarioError(
                f"{max_count} x {fam} still violates the "
                f"{self.scenario.qos_target_ms:g} ms QoS for {self.scenario.model}; "
                f"the workload is beyond the searchable capacity"
            )
        # Insert-if-absent under the lock: scans are deterministic, so when
        # two threads race the first stored record stays canonical.
        with self._lock:
            return self._homogeneous.setdefault(key, record)

    def default_start(self, *, seed: int = 0) -> PoolConfiguration:
        """The paper's common start point for every strategy.

        The service "is already running at minimal cost on a specific
        instance type": the homogeneous optimum's count, embedded at its
        family's dimension of the diverse space (clamped to the bound),
        zeros elsewhere.
        """
        mat = self.materialize(seed)
        fam = self.scenario.profile.homogeneous_family
        if fam not in mat.space.families:
            raise ScenarioError(
                f"default start needs the homogeneous family {fam!r} in the "
                f"pool; this scenario searches {mat.space.families}"
            )
        homog = self.homogeneous_optimum(fam, seed=seed)
        counts = [0] * mat.space.n_dims
        dim = mat.space.families.index(fam)
        counts[dim] = min(homog.pool.counts[0], mat.space.bounds[dim])
        return mat.space.pool(tuple(counts))


#: Equal scenarios share one runner (and so one materialization cache).
#: The cache is LRU-bounded: materializations hold full traces and every
#: simulated EvaluationRecord, so sweeping many distinct scenarios in one
#: process must not accumulate them forever.  Evicted runners stay valid
#: for callers still holding them; a later ``runner_for`` of the same
#: scenario simply re-materializes.
_RUNNER_CACHE_SIZE = 64
_RUNNERS: "OrderedDict[Scenario, ScenarioRunner]" = OrderedDict()
_RUNNERS_LOCK = threading.Lock()


def runner_for(scenario: Scenario) -> ScenarioRunner:
    """The shared :class:`ScenarioRunner` for a scenario value."""
    with _RUNNERS_LOCK:
        runner = _RUNNERS.get(scenario)
        if runner is None:
            runner = ScenarioRunner(scenario)
            _RUNNERS[scenario] = runner
        _RUNNERS.move_to_end(scenario)
        while len(_RUNNERS) > _RUNNER_CACHE_SIZE:
            _RUNNERS.popitem(last=False)
        return runner
