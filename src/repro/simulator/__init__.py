"""Discrete-event simulator of a heterogeneous inference-serving pool.

Queries arrive to a single FCFS queue and are dispatched to the *first
available* instance, breaking ties in the pool's type order (Sec. 5.1 of the
paper).  Two independently written engines are provided:

* :class:`~repro.simulator.engine.InferenceServingSimulator` — the fast
  arrival-order engine used everywhere (a query either starts immediately on
  the first free instance in type order, or waits for the earliest-free
  instance).  Instances of one family are interchangeable for latency, so
  by default it decides only the serving *family* per query, on one float
  heap of free times per family (``dispatch="family"``).  Its compiled
  loop also returns the latencies and the total queue length seen at
  arrivals in the same pass; the per-arrival column
  (``queue_len_at_arrival``) is derived only on first read.
* :class:`~repro.simulator.events.EventHeapSimulator` — the per-instance
  event-heap reference, which the test suite cross-validates the fast
  engine against bit for bit (``dispatch="heap"`` on the fast engine
  runs it).

Both report the same :class:`~repro.simulator.metrics.SimulationResult`:
per-query latencies and start times, from which it derives the QoS
satisfaction rate, latency percentiles (``np.percentile``'s ``linear``
method, read off the sorted latencies) and the queue length at arrivals.

Two process-wide in-memory caches back the fast engine: the per-workload
:class:`~repro.simulator.service.ServiceTimeCache` (service-time matrices,
shared by both engines) and the per-(workload, pool)
:class:`~repro.simulator.result_cache.SimulationResultCache` (whole
simulation results, one entry per pool's non-zero counts, fast engine
only — the reference engine stays independent so equivalence tests keep
meaning something).  The fast engine reads the cached matrix on every
path, and counts each dispatch once, in the process-wide
:func:`~repro.simulator.engine.global_dispatch_counters`.
"""

from repro.simulator.pool import PoolConfiguration
from repro.simulator.metrics import SimulationResult
from repro.simulator.engine import (
    DispatchCounters,
    InferenceServingSimulator,
    global_dispatch_counters,
)
from repro.simulator.events import EventHeapSimulator
from repro.simulator.result_cache import (
    SimulationResultCache,
    shared_simulation_cache,
)
from repro.simulator.service import (
    ServiceTimeCache,
    service_time_matrix,
    shared_service_cache,
)

__all__ = [
    "PoolConfiguration",
    "SimulationResult",
    "InferenceServingSimulator",
    "EventHeapSimulator",
    "DispatchCounters",
    "ServiceTimeCache",
    "SimulationResultCache",
    "global_dispatch_counters",
    "service_time_matrix",
    "shared_service_cache",
    "shared_simulation_cache",
]
