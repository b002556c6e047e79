"""Fast FCFS heterogeneous-pool serving engine.

The dispatch policy is the paper's (Sec. 5.1): queries are handled strictly
in arrival order; each query goes to the *first available* instance, where
"first" follows the pool's type order (Table 3).  If no instance is free at
arrival, the query waits in a single FCFS queue for the earliest-free
instance.

Because service times do not depend on the dispatch instant, the whole
simulation reduces to one pass over queries in arrival order, keeping a
``free_at`` clock per instance:

* if some instance is free at the arrival time, pick the lowest-index free
  instance (instances are laid out in type order, so this is exactly the
  type-order preference);
* otherwise the query starts on ``argmin(free_at)`` at that instant,
  breaking ties toward the lowest index.

This is an exact simulation of the queueing system, not an approximation —
the event-heap engine in :mod:`repro.simulator.events` independently verifies
it in the test suite.

Performance notes (per the profiling-first HPC guidance this repo follows):

* service times come pre-noised from the per-workload
  :class:`~repro.simulator.service.ServiceTimeCache`, so repeated pool
  evaluations of one search never regenerate the lognormal draws;
* whole simulations are memoized across evaluators by the process-wide
  :class:`~repro.simulator.result_cache.SimulationResultCache` — the
  engine is deterministic per ``(model, trace, pool)``, so re-simulating
  a configuration another seed/fork already served returns the stored
  :class:`SimulationResult` without touching the dispatch loop;
* dispatch runs on one of two scalar loops, bit-identical to each other
  and to the event-heap reference (property-tested):

  - ``linear`` — the O(n·m) scan; O(1) per query on underloaded pools of
    any size because it short-circuits on the first free instance, and a
    single clock on single-instance pools;
  - ``heap`` — O(n log m) on two heaps (a min-heap of free instance
    indices for the type-order preference, and a min-heap of
    ``(free_at, index)`` busy instances for the earliest-free pick), which
    wins on big saturated pools where the scan stops short-circuiting.

  ``auto`` picks per simulation from the offered load (arrival rate x
  mean service time, from the cached matrix): the heap when the load
  keeps most of the pool busy, the scan otherwise (and always the scan
  for a single instance or an empty trace).  Per-path run counts are kept
  on the simulator and process-wide (:func:`global_dispatch_counters`);
* the scalar loops emit only what dispatch decides — each query's start
  time and chosen instance (plus the makespan) — and :meth:`simulate`
  derives the rest with vector operations: ``service_s`` is a gather
  from the service-time matrix by chosen instance type, ``busy`` is
  ``np.bincount(chosen, weights=service_s)`` (which sums in query order,
  so it matches a per-query running sum bit for bit), and the queue
  length seen by arrival q is ``q - min(q, #{j : start_j <= t_q})``, one
  ``searchsorted`` over the FCFS start times, which are monotone
  non-decreasing.
"""

from __future__ import annotations

import threading
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from repro.models.base import ModelProfile
from repro.simulator.metrics import SimulationResult
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import (
    SimulationResultCache,
    shared_simulation_cache,
)
from repro.simulator.service import ServiceTimeCache, shared_service_cache
from repro.workload.trace import QueryTrace

#: Heap-dispatch threshold (measured crossover; both paths are exact, so
#: this is purely a constant-factor policy).  The heap wins exactly when the
#: linear scan stops short-circuiting on an early free instance — i.e. when
#: the offered load occupies at least this fraction of the pool; on
#: underloaded pools of any size the scan is O(1) per query and faster.
_HEAP_MIN_OCCUPANCY = 0.8


class DispatchCounters:
    """Thread-safe run counters for the dispatch loops.

    ``linear``/``heap`` count simulations actually *dispatched* by each
    loop; result-memo hits never dispatch, so they do not count.
    """

    __slots__ = ("_lock", "_counts")

    PATHS = (
        "linear",
        "heap",
        # Always 0 (no vector substrate); perfbench's traced run reads them.
        "vector",
        "vector_hetero",
        "vector_fallback",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self.PATHS, 0)

    def record(self, path: str) -> None:
        with self._lock:
            self._counts[path] += 1

    def merge(self, counts: dict[str, int]) -> None:
        """Fold a per-path count delta in (cross-process aggregation).

        The process evaluation backend's workers dispatch on their own
        counters and ship the delta back; unknown paths raise so a
        protocol drift cannot silently drop counts.
        """
        unknown = set(counts) - set(self._counts)
        if unknown:
            raise ValueError(f"unknown dispatch paths {sorted(unknown)}")
        with self._lock:
            for path, n in counts.items():
                self._counts[path] += int(n)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            for key in self._counts:
                self._counts[key] = 0


#: Process-wide engagement counters, aggregated across every simulator
#: (in addition to each simulator's own counters).
_GLOBAL_DISPATCH = DispatchCounters()


def global_dispatch_counters() -> DispatchCounters:
    """The process-wide :class:`DispatchCounters` instance."""
    return _GLOBAL_DISPATCH


class InferenceServingSimulator:
    """Serves query traces on pool configurations for one model.

    Parameters
    ----------
    model:
        The model whose latency profiles define service times.
    track_queue:
        Record the waiting-queue length seen by every arrival (needed by the
        load-change detector; a small constant overhead).
    service_cache:
        Service-time matrix cache; defaults to the process-wide shared
        instance so every simulator serving the same workload reuses one
        matrix.  Pass ``ServiceTimeCache(maxsize=0)`` to disable caching.
    dispatch:
        ``"auto"`` (default) picks a dispatch loop per simulation from the
        offered load; ``"linear"`` / ``"heap"`` force one (the equivalence
        tests exercise both on equal inputs).  The dispatch path is
        deliberately *not* part of the result-memo key: both loops are
        bit-identical by contract.
    dispatch_counters:
        Engagement-counter sink for this simulator (also mirrored into the
        process-wide :func:`global_dispatch_counters`).  Evaluators and
        runners share one counters object across their forks so sweeps can
        report which dispatch loops actually ran.
    result_cache:
        Whole-result memo; defaults to the process-wide shared instance so
        any simulator asked for a ``(model, trace, pool)`` it (or a sibling
        evaluator) already served returns the stored
        :class:`SimulationResult` without re-running dispatch.  Pass
        ``SimulationResultCache(maxsize=0)`` to opt out (e.g. when
        benchmarking the dispatch loop itself).
    """

    #: The full dispatch-policy set (``auto`` plus the two loops).
    DISPATCH_POLICIES = ("auto", "linear", "heap")

    def __init__(
        self,
        model: ModelProfile,
        *,
        track_queue: bool = True,
        service_cache: ServiceTimeCache | None = None,
        dispatch: str = "auto",
        result_cache: SimulationResultCache | None = None,
        dispatch_counters: DispatchCounters | None = None,
    ):
        if dispatch not in self.DISPATCH_POLICIES:
            raise ValueError(
                "dispatch must be one of "
                + ", ".join(repr(p) for p in self.DISPATCH_POLICIES)
                + f", got {dispatch!r}"
            )
        self._model = model
        self._track_queue = bool(track_queue)
        self._service_cache = (
            service_cache if service_cache is not None else shared_service_cache()
        )
        self._result_cache = (
            result_cache if result_cache is not None else shared_simulation_cache()
        )
        self._dispatch = dispatch
        self._counters = (
            dispatch_counters if dispatch_counters is not None else DispatchCounters()
        )
        # Memoized pool expansions: searches re-simulate the same lattice
        # vectors, and np.repeat + tolist is measurable per evaluation.
        self._expand_cache: dict[
            tuple[tuple[str, ...], tuple[int, ...]],
            tuple[list[int], tuple[str, ...], np.ndarray],
        ] = {}

    @property
    def model(self) -> ModelProfile:
        return self._model

    @property
    def service_cache(self) -> ServiceTimeCache:
        return self._service_cache

    @property
    def result_cache(self) -> SimulationResultCache:
        return self._result_cache

    @property
    def dispatch_counters(self) -> DispatchCounters:
        """The engagement-counter sink this simulator records into."""
        return self._counters

    @property
    def dispatch_counts(self) -> dict[str, int]:
        """Per-path dispatch run counts recorded through this simulator's
        counters (shared with sibling simulators when a counters object
        was passed in)."""
        return self._counters.snapshot()

    @property
    def track_queue(self) -> bool:
        """Whether simulations record the queue length seen per arrival
        (part of the result-memo key; the process evaluation backend
        forwards it to its workers)."""
        return self._track_queue

    def _record_dispatch(self, path: str) -> None:
        self._counters.record(path)
        if self._counters is not _GLOBAL_DISPATCH:
            _GLOBAL_DISPATCH.record(path)

    def merge_dispatch(self, counts: dict[str, int]) -> None:
        """Aggregate a dispatch-count delta produced elsewhere.

        Mirrors :meth:`_record_dispatch` for counts that accrued in a
        worker process: the delta lands on this simulator's counters and
        on the process-wide globals, exactly as if the simulations had
        dispatched here.
        """
        self._counters.merge(counts)
        if self._counters is not _GLOBAL_DISPATCH:
            _GLOBAL_DISPATCH.merge(counts)

    def cached_result(
        self, trace: QueryTrace, pool: PoolConfiguration
    ) -> SimulationResult | None:
        """The memoized result for ``(trace, pool)``, or None on a miss.

        Consults the result memo exactly as :meth:`simulate` would
        (including hit/miss stats and the disk tier, when configured);
        a disabled memo always misses.
        """
        memo = self._result_cache
        if not memo.enabled:
            return None
        return memo.get(
            self._model, trace, pool.families, pool.counts, self._track_queue
        )

    def admit_result(
        self,
        trace: QueryTrace,
        pool: PoolConfiguration,
        result: SimulationResult,
    ) -> SimulationResult:
        """Admit an externally produced result into the result memo.

        The process evaluation backend simulates in workers and feeds the
        results back through here: the memo freezes the arrays and keeps
        the first-stored entry canonical (insert-if-absent), exactly as
        :meth:`simulate` does for locally dispatched results.  With the
        memo disabled the result passes through untouched.
        """
        memo = self._result_cache
        if not memo.enabled:
            return result
        return memo.put(
            self._model, trace, pool.families, pool.counts, self._track_queue, result
        )

    def simulate(
        self, trace: QueryTrace, pool: PoolConfiguration
    ) -> SimulationResult:
        """Serve ``trace`` on ``pool`` and return the measured metrics.

        Raises
        ------
        ValueError
            If the pool is empty (no instance can serve).
        KeyError
            If a pool family has no latency profile for this model.
        """
        if pool.is_empty():
            raise ValueError(f"cannot serve on an empty pool {pool}")
        for fam in pool.families:
            if fam not in self._model.profiles:
                raise KeyError(
                    f"model {self._model.name!r} has no profile for {fam!r}"
                )

        # Whole-result memo: the simulation is deterministic per
        # (model, trace, pool, track_queue), so a repeat — typically a
        # sibling evaluator in a run_many sweep or a load-change fork —
        # skips dispatch entirely.
        memo = self._result_cache
        memoize = memo.enabled
        if memoize:
            hit = memo.get(
                self._model, trace, pool.families, pool.counts, self._track_queue
            )
            if hit is not None:
                return hit

        n = len(trace)
        expand_key = (pool.families, pool.counts)
        expanded = self._expand_cache.get(expand_key)
        if expanded is None:
            type_of_instance, families = pool.expand()
            type_of_instance = np.ascontiguousarray(
                type_of_instance, dtype=np.int64
            )
            expanded = (
                type_of_instance.tolist(),
                tuple(families[i] for i in type_of_instance.tolist()),
                type_of_instance,
            )
            if len(self._expand_cache) < 4096:
                self._expand_cache[expand_key] = expanded
        type_list, instance_family, type_of_instance = expanded
        families = pool.families
        n_instances = len(type_list)
        cache = self._service_cache
        service_rows: list[list[float]] | None = None

        # -- dispatch-path policy ------------------------------------------
        if self._dispatch != "auto":
            path = self._dispatch
        elif n_instances == 1 or n == 0:
            path = "linear"
        else:
            # Offered load in busy-instance units (Erlangs): arrival rate x
            # mean service time per query (pool-mix average).  With caching
            # disabled, derive the means from list rows materialized once
            # and reused by the loop below.
            duration = trace.duration_s
            if cache.maxsize > 0:
                means = cache.row_means(self._model, trace, families)
            else:
                service_rows = cache.rows(self._model, trace, families)
                means = [float(sum(r)) / len(r) for r in service_rows]
            offered = (
                n
                * (float(sum(means[t] for t in type_list)) / n_instances)
                / duration
                if duration > 0.0
                else np.inf
            )
            path = (
                "heap" if offered >= _HEAP_MIN_OCCUPANCY * n_instances else "linear"
            )

        if service_rows is None:
            service_rows = cache.rows(self._model, trace, families)
        run = self._run_heap if path == "heap" else self._run_linear
        starts, chosen, makespan = run(
            cache.arrival_list(trace), service_rows, type_list, n_instances
        )
        chosen = np.asarray(chosen, dtype=np.int64)
        matrix = (
            cache.matrix(self._model, trace, families)
            if cache.maxsize > 0
            else np.asarray(service_rows)
        )
        # A fresh gather, not a matrix view: a memoized result must not
        # pin the whole multi-family matrix.
        service_s = matrix[type_of_instance[chosen], np.arange(n)]
        start_s = np.asarray(starts, dtype=float)
        wait_s = start_s - trace.arrival_s
        queue_len = np.empty(0)
        if self._track_queue:
            # FCFS starts are monotone, so the queries started by t_q are
            # a prefix; the earlier arrivals past it are still queued.
            q = np.arange(n)
            started = np.searchsorted(start_s, trace.arrival_s, "right")
            queue_len = q - np.minimum(q, started)
        result = SimulationResult(
            latency_s=wait_s + service_s,
            wait_s=wait_s,
            service_s=service_s,
            instance_index=chosen,
            instance_family=instance_family,
            busy_s_per_instance=np.bincount(
                chosen, weights=service_s, minlength=n_instances
            ),
            makespan_s=makespan,
            queue_len_at_arrival=queue_len,
        )
        self._record_dispatch(path)
        if memoize:
            result = memo.put(
                self._model,
                trace,
                pool.families,
                pool.counts,
                self._track_queue,
                result,
            )
        return result

    # -- dispatch loops -----------------------------------------------------
    def _run_linear(
        self,
        arrival_list: list[float],
        service_rows: list[list[float]],
        type_list: list[int],
        n_instances: int,
    ):
        """O(n·m) scalar scan; fastest below the heap crossover (and the
        only loop for a single instance, which runs :meth:`_run_single`).

        Returns ``(starts, chosen, makespan)``: per-query start times and
        instance indices, in arrival order.  Everything else a result
        holds is derived from these by :meth:`simulate`.
        """
        if n_instances == 1:
            return self._run_single(arrival_list, service_rows[type_list[0]])
        rows = [service_rows[t] for t in type_list]
        free_list = [0.0] * n_instances
        starts: list[float] = []
        chosen: list[int] = []
        # Bound methods: the loop body runs hundreds of thousands of times
        # per search, where attribute lookups are a measurable cost.
        starts_append = starts.append
        chosen_append = chosen.append
        for q, t in enumerate(arrival_list):
            # First free instance in type order, else earliest-free.
            best_i = 0
            best_free = free_list[0]
            found_free = best_free <= t
            if not found_free:
                for i in range(1, n_instances):
                    f = free_list[i]
                    if f <= t:
                        best_i, found_free = i, True
                        break
                    if f < best_free:
                        best_i, best_free = i, f
            start = t if found_free else best_free
            free_list[best_i] = start + rows[best_i][q]
            starts_append(start)
            chosen_append(best_i)
        return starts, chosen, max(free_list)

    def _run_single(self, arrival_list: list[float], row: list[float]):
        """Single-instance pools: dispatch degenerates to one clock."""
        free = 0.0
        starts: list[float] = []
        starts_append = starts.append
        for t, s in zip(arrival_list, row):
            start = t if free <= t else free
            free = start + s
            starts_append(start)
        return starts, np.zeros(len(arrival_list), dtype=np.int64), free

    def _run_heap(
        self,
        arrival_list: list[float],
        service_rows: list[list[float]],
        type_list: list[int],
        n_instances: int,
    ):
        """O(n log m) heap dispatch; bit-identical to the linear scan.

        ``free`` holds indices of instances with ``free_at <= t`` (min-heap
        => lowest index => type-order preference).  ``busy_heap`` holds
        ``(free_at, index)`` pairs; its top is the earliest-free instance
        with the lowest-index tie-break — exactly the linear scan's argmin.
        Returns ``(starts, chosen, makespan)`` like :meth:`_run_linear`.
        """
        rows = [service_rows[t] for t in type_list]
        free = list(range(n_instances))
        heapify(free)
        busy_heap: list[tuple[float, int]] = []
        starts: list[float] = []
        chosen: list[int] = []
        push, pop, replace = heappush, heappop, heapreplace
        starts_append = starts.append
        chosen_append = chosen.append
        for q, t in enumerate(arrival_list):
            while busy_heap and busy_heap[0][0] <= t:
                push(free, pop(busy_heap)[1])
            if free:
                i = pop(free)
                start = t
                push(busy_heap, (start + rows[i][q], i))
            else:
                # Saturated: the root instance serves this query; replace
                # in place (one sift) instead of pop + push.  Tuples are
                # strictly ordered (indices unique), so the pop sequence —
                # the only observable — is unchanged.
                start, i = busy_heap[0]
                replace(busy_heap, (start + rows[i][q], i))
            starts_append(start)
            chosen_append(i)
        # The last query's finish is still on the busy heap, and every
        # instance already moved back to ``free`` finished before it.
        makespan = float(max(busy_heap)[0]) if busy_heap else 0.0
        return starts, chosen, makespan
