"""Configuration evaluation: the costly black box of the optimization.

Evaluating a configuration means deploying the pool and serving the query
stream; the optimizer only sees the resulting (QoS satisfaction rate, cost)
pair.  :class:`ConfigurationEvaluator` wraps the simulator behind exactly
that interface and adds memoization (re-evaluating a configuration on the
same trace is free — the paper's methods never pay twice for one
configuration).  Each newly admitted record carries its admission index;
the per-search accounting of Figs. 13/14 (exploration dollars,
violating samples) lives in :class:`~repro.core.strategy.Budget` and
:class:`~repro.core.result.SearchResult`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.objective import ObjectiveFunction
from repro.core.search_space import SearchSpace
from repro.models.base import ModelProfile
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.metrics import SimulationResult
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache
from repro.workload.trace import QueryTrace


@dataclass(frozen=True)
class EvaluationRecord:
    """Everything the optimizer learns from one configuration evaluation."""

    pool: PoolConfiguration
    qos_rate: float
    cost_per_hour: float
    objective: float
    meets_qos: bool
    sample_index: int
    p99_ms: float
    mean_queue_length: float

    @property
    def counts(self) -> tuple[int, ...]:
        return self.pool.counts

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = "meets" if self.meets_qos else "VIOLATES"
        return (
            f"{self.pool} rate={self.qos_rate:.4f} ({flag}) "
            f"${self.cost_per_hour:.3f}/hr f={self.objective:.4f}"
        )


class ConfigurationEvaluator:
    """Serve-and-measure black box with memoization.

    Parameters
    ----------
    model:
        Model being served.
    trace:
        The query stream every configuration is evaluated against (common
        random numbers across strategies).
    objective:
        Objective function (defines the QoS rate target, too).
    qos_target_ms:
        Latency target; defaults to the model's calibrated target.
    eval_duration_hours:
        Wall-clock hours a search bills each sampled configuration for
        (the paper deploys each sampled configuration for a fixed
        observation window).  Defaults to the trace duration;
        a *defaulted* window is re-derived from the new trace on
        :meth:`fork`, while an explicit one is kept.
    service_cache:
        Service-time matrix cache handed to the simulator (and propagated
        by :meth:`fork`); defaults to the process-wide shared cache.
    result_cache:
        Whole-simulation memo handed to the simulator (and propagated by
        :meth:`fork`); defaults to the process-wide shared cache, making
        re-evaluations of one configuration free *across* evaluators —
        every seed of a sweep, every load-change fork.  Pass
        ``SimulationResultCache(maxsize=0)`` to opt out.

    Raises
    ------
    ValueError
        If the trace is empty: a zero-query window vacuously satisfies
        any QoS at zero cost (see
        :class:`~repro.simulator.metrics.SimulationResult`), so letting
        it into a search would crown an idle window the winner.
    """

    def __init__(
        self,
        model: ModelProfile,
        trace: QueryTrace,
        objective: ObjectiveFunction,
        *,
        qos_target_ms: float | None = None,
        eval_duration_hours: float | None = None,
        service_cache: ServiceTimeCache | None = None,
        result_cache: SimulationResultCache | None = None,
    ):
        if len(trace) == 0:
            raise ValueError(
                "trace has no queries: an empty window is vacuously "
                "QoS-perfect and costless, which would corrupt the search; "
                "evaluate against a non-empty trace"
            )
        self._model = model
        self._trace = trace
        self._objective = objective
        self._qos_target_ms = (
            float(qos_target_ms) if qos_target_ms is not None else model.qos_target_ms
        )
        if self._qos_target_ms <= 0:
            raise ValueError("qos_target_ms must be positive")
        # Whether the accounting window was pinned by the caller: a pinned
        # window survives fork() onto a different-duration trace, a
        # defaulted one is re-derived from the new trace (Fig. 13/14
        # exploration dollars must track the trace actually served).
        self._eval_hours_explicit = eval_duration_hours is not None
        self._eval_hours = (
            float(eval_duration_hours)
            if eval_duration_hours is not None
            else trace.duration_s / 3600.0
        )
        self._sim = InferenceServingSimulator(
            model,
            service_cache=service_cache,
            result_cache=result_cache,
        )
        self._cache: dict[tuple[int, ...], EvaluationRecord] = {}
        #: Optional observer called with each *newly admitted* record (cache
        #: hits never re-fire).  Evaluation runs in the calling thread, so
        #: the hook needs no locking.
        #: An exception raised by the hook propagates out of the evaluation
        #: after the record is admitted; the optimization service uses this
        #: for live progress reporting and cooperative job cancellation.
        self.on_record: "Callable[[EvaluationRecord], None] | None" = None

    # -- properties -------------------------------------------------------------
    @property
    def model(self) -> ModelProfile:
        return self._model

    @property
    def trace(self) -> QueryTrace:
        return self._trace

    @property
    def objective(self) -> ObjectiveFunction:
        return self._objective

    @property
    def space(self) -> SearchSpace:
        return self._objective.space

    @property
    def qos_target_ms(self) -> float:
        return self._qos_target_ms

    @property
    def simulator(self) -> InferenceServingSimulator:
        """The serving simulator behind this evaluator (introspection:
        dispatch counters, caches)."""
        return self._sim

    @property
    def eval_duration_hours(self) -> float:
        """Wall-clock hours one evaluation is billed for (Fig. 13/14)."""
        return self._eval_hours

    def exhaustive_cost_dollars(self) -> float:
        """Dollars to exhaustively deploy every configuration in the space.

        Computed in closed form (:attr:`SearchSpace.total_lattice_cost`),
        whose docstring says why it is not a grid sum.
        """
        return float(self.space.total_lattice_cost * self._eval_hours)

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, pool: PoolConfiguration) -> EvaluationRecord:
        """Evaluate a configuration (cached; cache hits are free)."""
        self._check_families(pool)
        key = pool.counts
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if pool.is_empty():
            record = self._empty_pool_record(pool)
        else:
            result = self._sim.simulate(self._trace, pool)
            record = self._record_from_result(pool, result)
        self._admit(key, record)
        return record

    def evaluate_many(
        self, pools: Iterable[PoolConfiguration]
    ) -> list[EvaluationRecord]:
        """Evaluate several configurations; records in ``pools`` order.

        Every pool's families are checked before any is simulated, so a
        mismatched batch is rejected whole; then each pool goes through
        :meth:`evaluate` in order.
        """
        pools = list(pools)
        for pool in pools:
            self._check_families(pool)
        return [self.evaluate(pool) for pool in pools]

    def _check_families(self, pool: PoolConfiguration) -> None:
        if pool.families != self.space.families:
            raise ValueError(
                f"pool families {pool.families} do not match search space "
                f"{self.space.families}"
            )

    def _empty_pool_record(self, pool: PoolConfiguration) -> EvaluationRecord:
        # The empty pool serves nothing: rate 0, cost 0.
        return EvaluationRecord(
            pool=pool,
            qos_rate=0.0,
            cost_per_hour=0.0,
            objective=self._objective.value(pool.counts, 0.0),
            meets_qos=False,
            sample_index=len(self._cache),
            p99_ms=float("inf"),
            mean_queue_length=float("inf"),
        )

    def _admit(self, key: tuple[int, ...], record: EvaluationRecord) -> None:
        """Store one newly measured record and notify the observer."""
        self._cache[key] = record
        if self.on_record is not None:
            self.on_record(record)

    def _record_from_result(
        self, pool: PoolConfiguration, result: SimulationResult
    ) -> EvaluationRecord:
        rate = result.qos_satisfaction_rate(self._qos_target_ms)
        return EvaluationRecord(
            pool=pool,
            qos_rate=rate,
            cost_per_hour=pool.hourly_cost(self.space.catalog),
            objective=self._objective.value(pool.counts, rate),
            meets_qos=self._objective.meets_qos(rate),
            sample_index=len(self._cache),
            p99_ms=result.p99_ms,
            mean_queue_length=result.mean_queue_length,
        )

    def fork(self, trace: QueryTrace) -> "ConfigurationEvaluator":
        """A fresh evaluator on a different trace (load-change experiments).

        An explicitly pinned ``eval_duration_hours`` is inherited; a
        window that was *defaulted* from the parent's trace duration is
        re-defaulted from ``trace`` (passing the parent's stale window
        would misprice exploration dollars on a different-duration trace).
        """
        return ConfigurationEvaluator(
            self._model,
            trace,
            self._objective,
            qos_target_ms=self._qos_target_ms,
            eval_duration_hours=(
                self._eval_hours if self._eval_hours_explicit else None
            ),
            service_cache=self._sim.service_cache,
            result_cache=self._sim.result_cache,
        )
