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
:mod:`repro.simulator.events`, written independently of this one, is the
per-instance reference the test suite verifies all of this against.

The family loop runs on one of two substrates with bit-identical results:

* compiled: ``_dispatch.c``, a port of :func:`_serve_family` and
  :func:`_run_families` with the same float comparisons and additions and a
  plain binary min-heap (the loops only read a heap's minimum), called once
  per simulation through ctypes on the service matrix and the trace's
  arrivals in place.  :func:`_native_loops` builds and loads it at the
  first family dispatch through :mod:`repro._native` (one compile recipe,
  cache directory and fallback rule for the package's C files); a
  self-check must then reproduce the Python path's start times, latencies
  and queue total bit for bit on a fixed problem full of ties;
* Python: the loops below, on plain lists converted from the service
  matrix and the arrivals at each call.  They are the compiled loop's
  spec and self-check oracle, and they run whenever no compiler is on
  ``PATH``, the build or load fails, or the self-check disagrees.

Both substrates emit the start times.  The compiled loop also computes the
figures of merit that need a pass over the queries, with the operations
the Python path runs in NumPy: the latencies, ``(start - arrival) +
service``, and the total waiting-queue length seen at arrivals, one exact
integer from a two-pointer pass (arrivals are sorted and FCFS starts are
monotone).  :meth:`InferenceServingSimulator.simulate` hands that total
over the query count to the result as its mean queue length.  On the
Python loops, ``simulate`` derives the latencies with vector operations
(the service times are a gather from the service-time matrix by family),
and the result derives the mean from the queue column.  Either way the
result stores the latencies and start times only; the per-arrival queue
column is derived on first read
(:func:`~repro.simulator.metrics.queue_lengths_at_arrival`), and nothing
in the search reads it.  ``dispatch="heap"`` hands the whole simulation
to the event-heap reference instead, off the result memo.

Service times come pre-noised from the per-workload
:class:`~repro.simulator.service.ServiceTimeCache`, and whole simulations are
memoized by the process-wide
:class:`~repro.simulator.result_cache.SimulationResultCache`, keyed once per
workload and pool, so the bounds bisection, the homogeneous scan and every
evaluator share one entry per pool.  Every dispatch (never a memo hit) is
counted once, in the process-wide :func:`global_dispatch_counters`.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from heapq import heapreplace

import numpy as np

from repro import _native
from repro.models.base import ModelProfile
from repro.simulator.events import EventHeapSimulator
from repro.simulator.metrics import SimulationResult, queue_lengths_at_arrival
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
    readers of the counters) and ``heap`` ``dispatch="heap"`` runs of the
    event-heap reference.  Only real dispatches count, not memo hits; one
    process-wide instance, :func:`global_dispatch_counters`, records them.
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


#: Process-wide dispatch counters, recorded into by every simulator.
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
        ``"family"`` (default) runs the family-level loop, compiled where
        it builds.  ``"heap"`` runs a fresh
        :class:`~repro.simulator.events.EventHeapSimulator` on this
        simulator's service cache, off the result memo; it remains only
        for the benchmark harness's re-simulation check (new code calls
        ``EventHeapSimulator`` directly).  Every dispatch is counted in
        :func:`global_dispatch_counters`.
    result_cache:
        Whole-result memo; defaults to the process-wide shared instance so
        any simulator asked for a ``(model, trace, pool)`` it (or a sibling
        evaluator) already served returns the stored
        :class:`SimulationResult` without re-running dispatch.  Pass
        ``SimulationResultCache(maxsize=0)`` to opt out (e.g. when
        benchmarking the dispatch loop itself).
    """

    #: The dispatch-policy set: the family loop and the event-heap reference.
    DISPATCH_POLICIES = ("family", "heap")

    def __init__(
        self,
        model: ModelProfile,
        *,
        service_cache: ServiceTimeCache | None = None,
        dispatch: str = "family",
        result_cache: SimulationResultCache | None = None,
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

    @property
    def model(self) -> ModelProfile:
        return self._model

    @property
    def service_cache(self) -> ServiceTimeCache:
        return self._service_cache

    @property
    def result_cache(self) -> SimulationResultCache:
        return self._result_cache

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
        if self._dispatch == "heap":
            _GLOBAL_DISPATCH.record("heap")
            return EventHeapSimulator(
                self._model, service_cache=self._service_cache
            ).simulate(trace, pool)

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
        counts = pool.counts
        matrix = self._service_cache.matrix(self._model, trace, pool.families)
        loops = _native_loops()
        if loops is not None:
            # Compiled loop: reads the matrix and arrivals in place and
            # returns the latencies and the queue total with the starts.
            start_s, latency_s, queued = loops.run(
                trace.arrival_s, matrix, counts
            )
            result = SimulationResult(
                latency_s=latency_s,
                start_s=start_s,
                arrival_s=trace.arrival_s,
                mean_queue_length=queued / n if n else 0.0,
            )
        else:
            # The Python loops run on plain lists, converted per call;
            # they never read a zero-count family's row.
            arrivals = trace.arrival_s.tolist()
            rows = [row.tolist() if c else [] for row, c in zip(matrix, counts)]
            starts, family = _family_loop(arrivals, rows, counts)
            if isinstance(family, int):  # a single-family pool
                service_s = matrix[family]
            else:
                service_s = matrix[family, np.arange(n)]
            start_s = np.asarray(starts, dtype=float)
            result = SimulationResult(
                latency_s=(start_s - trace.arrival_s) + service_s,
                start_s=start_s,
                arrival_s=trace.arrival_s,
            )
        _GLOBAL_DISPATCH.record("linear")
        if memoize:
            result = memo.put(
                self._model, trace, pool.families, pool.counts, result
            )
        return result


# -- dispatch loops -----------------------------------------------------------
# Each returns the per-query start times (plus the family choices);
# simulate() derives the latencies from them.  Bound methods are
# hoisted out of the loops: their bodies run hundreds of thousands of times
# per search, where attribute lookups are a measurable cost.


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


def _family_loop(
    arrivals: list[float], service_rows: list[list[float]], counts
):
    """The family loop on Python lists: ``(starts, family)``, where
    ``family`` is the serving family's index for a single-family pool and
    the per-query choices otherwise."""
    live = [k for k, count in enumerate(counts) if count]
    if len(live) == 1:
        k = live[0]
        return _serve_family(arrivals, service_rows[k], counts[k]), k
    starts, chosen = _run_families(
        arrivals, [(k, counts[k], service_rows[k]) for k in live]
    )
    return starts, np.asarray(
        chosen, dtype=np.min_scalar_type(len(service_rows) - 1)
    )


# -- compiled family loop -----------------------------------------------------

class _NativeLoops:
    """ctypes bindings of ``_dispatch.c``'s ``serve_family`` and
    ``run_families``; ctypes releases the GIL for the call.

    Arrays cross as plain addresses: :meth:`run` makes every input
    C-contiguous float64 and allocates every output itself, and checks the
    sizes before any address reaches C, so per-argument ``ndpointer``
    validation would only repeat it.
    """

    def __init__(self, lib: ctypes.CDLL):
        n, p = ctypes.c_int64, ctypes.c_void_p
        self._serve = lib.serve_family
        self._serve.argtypes = (n, p, p, n, p, p, p)
        self._serve.restype = n
        self._run = lib.run_families
        self._run.argtypes = (n, p, p, n, p, p, p, p, p)
        self._run.restype = n

    def run(self, arrival_s: np.ndarray, matrix: np.ndarray, counts):
        """:func:`_family_loop` on arrays, with the figures of merit
        ``simulate`` needs: ``(start_s, latency_s, queue_total)``, where
        ``latency_s`` is ``(start - arrival) + service`` and
        ``queue_total`` is ``queue_lengths_at_arrival(start_s,
        arrival_s).sum()``."""
        arrival_s = np.ascontiguousarray(arrival_s, dtype=np.float64)
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        n = arrival_s.size
        if matrix.shape != (len(counts), n) or min(counts) < 0 or not any(counts):
            raise ValueError(
                f"service matrix {matrix.shape} does not fit {n} arrivals "
                f"and counts {tuple(counts)} (non-negative, some non-zero)"
            )
        live = [k for k, count in enumerate(counts) if count]
        start = np.empty(n)
        latency = np.empty(n)
        heap = np.empty(sum(counts))
        out = (heap.ctypes.data, start.ctypes.data, latency.ctypes.data)
        if len(live) == 1:
            k = live[0]
            queued = self._serve(
                n, arrival_s.ctypes.data, matrix[k].ctypes.data, counts[k], *out
            )
        else:
            family = np.array(live, dtype=np.int64)
            count = np.array([counts[k] for k in live], dtype=np.int64)
            queued = self._run(
                n, arrival_s.ctypes.data, matrix.ctypes.data, len(live),
                family.ctypes.data, count.ctypes.data, *out,
            )
        return start, latency, queued


def _native_agrees(loops: _NativeLoops) -> bool:
    """Bit-equality of the compiled and the Python family loops on a fixed
    problem: tied arrivals, exact (dyadic) times so that free times tie
    with each other and with arrivals, two families with equal service
    rows, zero service times, and count-1 and zero-count families.  The
    start times, the latencies and the queue total must all match what
    ``simulate`` derives from the Python loops."""
    arrival = np.repeat(np.arange(40.0) * 0.25, np.arange(40) % 3 + 1)
    step = np.arange(arrival.size)
    matrix = np.stack([
        np.full(arrival.size, 0.5),
        np.full(arrival.size, 0.5),
        (step % 4 + 1) * 0.25,
        (step % 3) * 0.5,
        0.1 + np.abs(np.sin(step)),
    ])
    rows = [row.tolist() for row in matrix]
    for counts in ((1, 0, 0, 0, 0), (0, 0, 3, 0, 0), (1, 1, 0, 0, 0),
                   (2, 0, 1, 3, 0), (0, 1, 2, 1, 0), (1, 2, 1, 0, 1),
                   (1, 0, 1, 1, 2)):
        start, latency, queued = loops.run(arrival, matrix, counts)
        ref_starts, family = _family_loop(arrival.tolist(), rows, counts)
        ref_start = np.asarray(ref_starts, dtype=float)
        service = matrix[family] if isinstance(family, int) else matrix[family, step]
        if (
            start.tobytes() != ref_start.tobytes()
            or latency.tobytes() != ((ref_start - arrival) + service).tobytes()
            or queued != queue_lengths_at_arrival(ref_start, arrival).sum()
        ):
            return False
    return True


@functools.cache
def _native_loops() -> _NativeLoops | None:
    """The compiled family loops if they build, load and reproduce the
    Python loops bit for bit here, else None (the Python loops run).

    Runs once per process, at the first family dispatch.
    """
    return _native.load(
        "repro.simulator", "_dispatch.c", _NativeLoops, _native_agrees
    )
