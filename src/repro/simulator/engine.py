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

The family loop runs on one of two substrates with bit-identical results:

* compiled: ``_dispatch.c``, a port of :func:`_serve_family` and
  :func:`_run_families` with the same float comparisons and additions and a
  plain binary min-heap (the loops only read a heap's minimum), called once
  per simulation through ctypes on the service matrix and the trace's
  arrivals in place.  :func:`_native_loops` builds it at the first family
  dispatch with the system ``cc`` (``-O2 -ffp-contract=off``) into
  ``$XDG_CACHE_HOME/repro-ribbon/`` (default ``~/.cache/repro-ribbon/``),
  named by a hash of the source, the flags and the interpreter, so a host
  compiles it once (~0.1 s).  A self-check must then reproduce the Python
  loops bit for bit on a fixed problem full of ties;
* Python: the loops below, on plain lists converted from the service
  matrix and the arrivals at each call.  They are the compiled loop's
  spec and self-check oracle, and they run whenever no compiler is on
  ``PATH``, the build or load fails, or the self-check disagrees.

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
evaluator share one entry per pool.  Every dispatch (never a memo hit) is
counted once, in the process-wide :func:`global_dispatch_counters`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from heapq import heapify, heappop, heappush, heapreplace
from importlib import resources
from pathlib import Path

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
    One process-wide instance, :func:`global_dispatch_counters`, records
    every dispatch.
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
        it builds; ``"heap"`` runs the per-instance reference loop (the
        equivalence tests compare both on equal inputs).  The dispatch
        path is deliberately *not* part of the result-memo key: both loops
        are bit-identical by contract.  Every dispatch is counted in
        :func:`global_dispatch_counters`.
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
        loops = _native_loops() if self._dispatch == "family" else None
        if loops is not None:
            # Compiled loop: reads the matrix and arrivals in place.
            starts, family = loops.run(trace.arrival_s, matrix, counts)
            _GLOBAL_DISPATCH.record("linear")
        else:
            # The Python loops run on plain lists, converted per call;
            # they never read a zero-count family's row.
            arrivals = trace.arrival_s.tolist()
            rows = [row.tolist() if c else [] for row, c in zip(matrix, counts)]
            if self._dispatch == "heap":
                type_of_instance, _ = pool.expand()
                type_list = type_of_instance.tolist()
                starts, chosen = _run_heap(
                    arrivals, rows, type_list, len(type_list)
                )
                family = type_of_instance[chosen]
                _GLOBAL_DISPATCH.record("heap")
            else:
                starts, family = _family_loop(arrivals, rows, counts)
                _GLOBAL_DISPATCH.record("linear")
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


# -- compiled family loop -----------------------------------------------------

#: Compiler flags; -ffp-contract=off forbids fused multiply-adds, so every
#: float operation rounds as it does in Python.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")


class _NativeLoops:
    """ctypes bindings of ``_dispatch.c``'s ``serve_family`` and
    ``run_families``; ctypes releases the GIL for the call."""

    def __init__(self, lib: ctypes.CDLL):
        n = ctypes.c_int64
        self._serve = lib.serve_family
        self._serve.argtypes = (n, _F64, _F64, n, _F64, _F64)
        self._serve.restype = None
        self._run = lib.run_families
        self._run.argtypes = (n, _F64, _F64, n, _I64, _I64, _F64, _F64, _I64)
        self._run.restype = None

    def run(self, arrival_s: np.ndarray, matrix: np.ndarray, counts):
        """:func:`_family_loop` on arrays: ``(start_s, family)``."""
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
        heap = np.empty(sum(counts))
        if len(live) == 1:
            k = live[0]
            self._serve(n, arrival_s, matrix[k], counts[k], heap, start)
            return start, k
        chosen = np.empty(n, dtype=np.int64)
        self._run(
            n, arrival_s, matrix, len(live),
            np.array(live, dtype=np.int64),
            np.array([counts[k] for k in live], dtype=np.int64),
            heap, start, chosen,
        )
        return start, chosen


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro-ribbon"


def _build_native() -> Path:
    """Compile ``_dispatch.c`` into the user cache unless a library built
    from the same source, flags and interpreter is already there."""
    source = resources.files("repro.simulator").joinpath("_dispatch.c").read_bytes()
    cc = shutil.which("cc")
    if cc is None:
        raise OSError("no C compiler 'cc' on PATH")
    host = f"{sys.implementation.cache_tag}-{platform.machine()}"
    digest = hashlib.sha256(
        b"\0".join([source, " ".join(_CFLAGS).encode(), host.encode()])
    ).hexdigest()[:16]
    target = _cache_dir() / f"_dispatch-{host}-{digest}.so"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        src, out = Path(tmp, "_dispatch.c"), Path(tmp, target.name)
        src.write_bytes(source)
        subprocess.run(
            [cc, *_CFLAGS, "-o", str(out), str(src)],
            check=True, capture_output=True, timeout=120,
        )
        # Atomic: a concurrent build of the same source just wins or loses.
        os.replace(out, target)
    return target


def _native_agrees(loops: _NativeLoops) -> bool:
    """Bit-equality of the compiled and the Python family loops on a fixed
    problem: tied arrivals, exact (dyadic) times so that free times tie
    with each other and with arrivals, two families with equal service
    rows, zero service times, and count-1 and zero-count families."""
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
        starts, family = loops.run(arrival, matrix, counts)
        ref_starts, ref_family = _family_loop(arrival.tolist(), rows, counts)
        if starts.tobytes() != np.asarray(ref_starts, dtype=float).tobytes():
            return False
        if not np.array_equal(family, ref_family):
            return False
    return True


@functools.cache
def _native_loops() -> _NativeLoops | None:
    """The compiled family loops if they build, load and reproduce the
    Python loops bit for bit here, else None (the Python loops run).

    Runs once per process, at the first family dispatch.
    """
    try:
        loops = _NativeLoops(ctypes.CDLL(str(_build_native())))
    except (OSError, RuntimeError, subprocess.SubprocessError, AttributeError):
        return None
    return loops if _native_agrees(loops) else None
