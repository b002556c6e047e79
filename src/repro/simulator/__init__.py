"""Discrete-event simulator of a heterogeneous inference-serving pool.

Queries arrive to a single FCFS queue and are dispatched to the *first
available* instance, breaking ties in the pool's type order (Sec. 5.1 of the
paper).  Two independently written engines are provided:

* :class:`~repro.simulator.engine.InferenceServingSimulator` — the fast
  arrival-order engine used everywhere (a query either starts immediately on
  the first free instance in type order, or waits for the earliest-free
  instance).  It dispatches on one of two bit-identical scalar loops —
  the linear scan or the heap dispatcher — picked per simulation by
  offered load (``dispatch="auto"``).
* :class:`~repro.simulator.events.EventHeapSimulator` — an event-heap
  reference implementation used to cross-validate the fast engine in the
  test suite.

Both report the same :class:`~repro.simulator.metrics.SimulationResult`
figures of merit: end-to-end latency percentiles, QoS satisfaction rate,
throughput, per-instance utilization, and queue-length statistics.

Two process-wide caches back the fast engine: the per-workload
:class:`~repro.simulator.service.ServiceTimeCache` (service-time matrices,
shared by both engines) and the per-(workload, pool)
:class:`~repro.simulator.result_cache.SimulationResultCache` (whole
simulation results, fast engine only — the reference engine stays
independent so equivalence tests keep meaning something).
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
