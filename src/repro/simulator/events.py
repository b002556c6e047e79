"""Event-heap reference simulator.

An independently written discrete-event implementation of the same FCFS
dispatch policy as :class:`repro.simulator.engine.InferenceServingSimulator`.
It maintains an explicit event heap of (time, kind) events and an explicit
FCFS waiting queue, the way a classical discrete-event simulation would be
structured.  It exists purely to cross-validate the fast engine: the test
suite asserts both produce identical per-query latencies on random
workloads, which guards the fast engine's reduction argument.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

import numpy as np

from repro.models.base import ModelProfile
from repro.simulator.metrics import SimulationResult
from repro.simulator.pool import PoolConfiguration
from repro.simulator.service import ServiceTimeCache, shared_service_cache
from repro.workload.trace import QueryTrace

# Event kinds, ordered so that at equal timestamps instance completions are
# processed before new arrivals (a query arriving exactly when an instance
# frees up finds it free — matching the fast engine's `free_at <= t` test).
_COMPLETION = 0
_ARRIVAL = 1


class EventHeapSimulator:
    """Reference FCFS simulator built on an explicit event heap."""

    def __init__(
        self,
        model: ModelProfile,
        *,
        service_cache: ServiceTimeCache | None = None,
    ):
        self._model = model
        self._service_cache = (
            service_cache if service_cache is not None else shared_service_cache()
        )

    @property
    def model(self) -> ModelProfile:
        return self._model

    def simulate(
        self, trace: QueryTrace, pool: PoolConfiguration
    ) -> SimulationResult:
        """Serve ``trace`` on ``pool``; identical contract to the fast engine."""
        if pool.is_empty():
            raise ValueError(f"cannot serve on an empty pool {pool}")
        n = len(trace)
        # Family index of each instance, earlier families first.
        families = pool.families
        type_of_instance = np.repeat(np.arange(len(families)), pool.counts)

        service_by_type = self._service_cache.matrix(self._model, trace, families)

        start_s = np.empty(n, dtype=float)
        service_s = np.empty(n, dtype=float)
        queue_len = np.zeros(n, dtype=np.int64)

        # Free instances kept sorted by index => type-order preference.
        free: list[int] = list(range(type_of_instance.size))
        heapq.heapify(free)
        waiting: deque[int] = deque()

        counter = itertools.count()  # tie-breaker for heap stability
        events: list[tuple[float, int, int, int]] = []
        for q in range(n):
            heapq.heappush(
                events, (float(trace.arrival_s[q]), _ARRIVAL, next(counter), q)
            )

        def start_query(q: int, now: float) -> None:
            inst = heapq.heappop(free)
            s = float(service_by_type[type_of_instance[inst], q])
            start_s[q] = now
            service_s[q] = s
            heapq.heappush(events, (now + s, _COMPLETION, next(counter), inst))

        while events:
            t, kind, _, payload = heapq.heappop(events)
            if kind == _COMPLETION:
                heapq.heappush(free, payload)
                # Instances finishing at one instant all free up before a
                # waiting query is dispatched, so it takes the lowest index
                # among them (the earliest-free tie-break of the policy).
                while events and events[0][:2] == (t, _COMPLETION):
                    heapq.heappush(free, heapq.heappop(events)[3])
                while waiting and free:
                    start_query(waiting.popleft(), t)
            else:  # arrival of query `payload`
                queue_len[payload] = len(waiting)
                if free and not waiting:
                    start_query(payload, t)
                else:
                    waiting.append(payload)

        return SimulationResult(
            latency_s=(start_s - trace.arrival_s) + service_s,
            start_s=start_s,
            arrival_s=trace.arrival_s,
            queue_len_at_arrival=queue_len,
        )
