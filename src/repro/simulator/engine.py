"""Fast FCFS heterogeneous-pool serving engine.

The dispatch policy is the paper's (Sec. 5.1): queries are handled strictly
in arrival order; each query goes to the *first available* instance, where
"first" follows the pool's type order (Table 3).  If no instance is free at
arrival, the query waits in a single FCFS queue for the earliest-free
instance, the lowest index on ties.

Service times do not depend on the dispatch instant, so the whole simulation
is one pass over queries in arrival order.  Instances of one family share a
service row, so the pass only decides which *family* serves each query.
Every family with a non-zero count keeps a float min-heap of its instances'
free times, and a query arriving at ``t``

* starts at ``t`` on the first family, in type order, whose heap top is
  ``<= t``;
* otherwise starts at the smallest heap top, on the first family holding it;
* and replaces that family's top with its finish time.

This is exact, not an approximation:

* free times ``<= t`` are interchangeable: arrivals are sorted, so every
  later query finds all of them free, whichever one was replaced;
* while no instance is free, a family's heap holds exactly the free times of
  its instances, so the earliest-free pick and its tie-break are the
  per-instance rule's.

A single-family pool has no family to choose and runs one heap (one clock
for a single instance).  The event-heap engine in
:mod:`repro.simulator.events` independently verifies all of this in the test
suite.

The loop emits only start times and the per-query family choice;
:meth:`InferenceServingSimulator.simulate` derives the latencies with vector
operations: the service times are a gather from the service-time matrix by
family, and ``latency = (start - arrival) + service``.  The result stores
the latencies and start times only; the queue length seen by each arrival
is derived from them on first read
(:func:`~repro.simulator.metrics.queue_lengths_at_arrival`), so bounds
bisection never pays for it.  ``dispatch="heap"`` runs the per-instance
loop :func:`_run_heap` over the whole pool instead; it is the reference the
equivalence tests compare the family loop with.

Service times come pre-noised from the per-workload
:class:`~repro.simulator.service.ServiceTimeCache`, and whole simulations are
memoized by the process-wide
:class:`~repro.simulator.result_cache.SimulationResultCache`, keyed once per
workload and pool, so the bounds bisection, the homogeneous scan and every
evaluator share one entry per pool.
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


class DispatchCounters:
    """Thread-safe run counters for the dispatch loops.

    ``linear`` counts family-loop runs (the key keeps its older name for
    readers of the counters) and ``heap`` per-instance reference runs.
    Only simulations actually *dispatched* count; result-memo hits do not.
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
    service_cache:
        Service-time matrix cache; defaults to the process-wide shared
        instance so every simulator serving the same workload reuses one
        matrix.  Pass ``ServiceTimeCache(maxsize=0)`` to disable caching.
    dispatch:
        ``"family"`` (default) runs the family-level loop; ``"heap"`` runs
        the per-instance reference loop (the equivalence tests compare
        both on equal inputs).  The dispatch path is deliberately *not*
        part of the result-memo key: both loops are bit-identical by
        contract.
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

    #: The dispatch-policy set: the family loop and the per-instance loop.
    DISPATCH_POLICIES = ("family", "heap")

    def __init__(
        self,
        model: ModelProfile,
        *,
        service_cache: ServiceTimeCache | None = None,
        dispatch: str = "family",
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

    def _record_dispatch(self, path: str) -> None:
        self._counters.record(path)
        if self._counters is not _GLOBAL_DISPATCH:
            _GLOBAL_DISPATCH.record(path)

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
        # (model, trace, pool), so a repeat — the homogeneous scan after
        # the bounds bisection, a sibling evaluator in a run_many sweep,
        # a load-change fork — skips dispatch entirely.
        memo = self._result_cache
        memoize = memo.enabled
        if memoize:
            hit = memo.get(self._model, trace, pool.families, pool.counts)
            if hit is not None:
                return hit

        n = len(trace)
        families, counts = pool.families, pool.counts
        cache = self._service_cache
        service_rows = cache.rows(self._model, trace, families)
        arrivals = cache.arrival_list(trace)
        matrix = (
            cache.matrix(self._model, trace, families)
            if cache.maxsize > 0
            else np.asarray(service_rows)
        )

        if self._dispatch == "heap":
            type_of_instance, _ = pool.expand()
            type_list = type_of_instance.tolist()
            starts, chosen = _run_heap(
                arrivals, service_rows, type_list, len(type_list)
            )
            service_s = matrix[type_of_instance[chosen], np.arange(n)]
            self._record_dispatch("heap")
        else:
            live = [k for k, count in enumerate(counts) if count]
            if len(live) == 1:
                k = live[0]
                starts = _serve_family(arrivals, service_rows[k], counts[k])
                service_s = matrix[k]
            else:
                starts, chosen = _run_families(
                    arrivals,
                    [(k, counts[k], service_rows[k]) for k in live],
                )
                choice = np.asarray(
                    chosen, dtype=np.min_scalar_type(len(families) - 1)
                )
                service_s = matrix[choice, np.arange(n)]
            self._record_dispatch("linear")
        start_s = np.asarray(starts, dtype=float)
        result = SimulationResult(
            latency_s=(start_s - trace.arrival_s) + service_s,
            start_s=start_s,
            arrival_s=trace.arrival_s,
        )
        if memoize:
            result = memo.put(
                self._model, trace, pool.families, pool.counts, result
            )
        return result


# -- dispatch loops -----------------------------------------------------------
# Each returns the per-query start times (plus the family or instance
# choices); simulate() derives everything else.  Bound methods are hoisted
# out of the loops: their bodies run hundreds of thousands of times per
# search, where attribute lookups are a measurable cost.


def _serve_family(arrivals: list[float], row: list[float], count: int):
    """A single-family pool: the start times from one heap of free times
    (one clock for a single instance)."""
    starts: list[float] = []
    starts_append = starts.append
    if count == 1:
        free = 0.0
        for t, s in zip(arrivals, row):
            start = t if free <= t else free
            free = start + s
            starts_append(start)
        return starts
    heap = [0.0] * count
    for t, s in zip(arrivals, row):
        start = heap[0]
        if start <= t:
            start = t
        heapreplace(heap, start + s)
        starts_append(start)
    return starts


def _run_families(
    arrivals: list[float], live: list[tuple[int, int, list[float]]]
):
    """The family loop over ``live`` ``(family, count, service row)``
    triples, in type order; ``(starts, chosen families)``."""
    fams = [(k, [0.0] * count, row) for k, count, row in live]
    starts: list[float] = []
    chosen: list[int] = []
    starts_append = starts.append
    chosen_append = chosen.append
    for q, t in enumerate(arrivals):
        best = None
        for k, heap, row in fams:
            top = heap[0]
            if top <= t:  # first family with a free instance
                heapreplace(heap, t + row[q])
                starts_append(t)
                chosen_append(k)
                break
            if best is None or top < best:
                best, best_k, best_heap, best_row = top, k, heap, row
        else:  # none free: the earliest-free family, first on ties
            heapreplace(best_heap, best + best_row[q])
            starts_append(best)
            chosen_append(best_k)
    return starts, chosen


def _run_heap(
    arrivals: list[float],
    service_rows: list[list[float]],
    type_list: list[int],
    n_instances: int,
):
    """The per-instance loop, O(n log m): ``(starts, chosen instances)``.

    ``free`` holds indices of instances with ``free_at <= t`` (min-heap =>
    lowest index => type-order preference).  ``busy_heap`` holds
    ``(free_at, index)`` pairs; its top is the earliest-free instance with
    the lowest-index tie-break.
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
    for q, t in enumerate(arrivals):
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
    return starts, chosen
