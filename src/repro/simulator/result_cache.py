"""Process-wide memo of full simulation results.

The simulator is deterministic per ``(model, trace, pool)``: serving one
trace on one pool configuration always produces the same
:class:`~repro.simulator.metrics.SimulationResult`.  The per-evaluator
record cache already exploits this *within* one search, but every forked
evaluator — each seed of a ``run_many`` sweep, each load-change phase,
each cross-strategy comparison on a shared workload — starts cold and
re-simulates every overlapping configuration from scratch.

:class:`SimulationResultCache` closes that gap with the identity-key +
weakref-eviction + LRU design shared (via
:class:`~repro.simulator._identity_cache.IdentityKeyedCache`) with
:class:`~repro.simulator.service.ServiceTimeCache`.  Keys combine the
workload identity with the pool's live ``(family, count)`` pairs in pool
order.  Zero-count families are dropped: service rows are keyed per trace
seed and family name, so ``(a, b, c)`` with counts ``(0, k, 0)`` serves
exactly like ``k`` instances of ``b`` alone, and the bounds bisection,
the homogeneous scan and the search share one entry per pool.  Only the
family loop reads and writes the memo: the engine's ``dispatch="heap"``
runs the event-heap reference past it.  Cached results have all their
arrays frozen read-only, so one result can back any number of concurrent
consumers (the service's job workers are threads that share the memo).
``maxsize=0`` disables the memo entirely (explicit opt-out); a result
holds four arrays of ``len(trace)`` 8-byte values once read (latencies,
start times, sorted latencies, queue column), bounded both by entry count
(``maxsize``) and by total payload bytes (``max_bytes``).

Hits, misses, and evictions are counted for introspection
(:meth:`SimulationResultCache.stats`, surfaced by
``ScenarioRunner.cache_stats``).
"""

from __future__ import annotations

from repro.simulator._identity_cache import IdentityKeyedCache
from repro.simulator.metrics import SimulationResult


def _freeze(result: SimulationResult) -> SimulationResult:
    """Make the stored arrays of a result read-only (shared-cache safety).

    The queue column is read-only as it is derived; touching it here
    would force the derivation.
    """
    for arr in (result.latency_s, result.start_s):
        if arr.flags.writeable:
            arr.flags.writeable = False
    return result


def _result_nbytes(result: SimulationResult) -> int:
    # Arrays a read attaches later (the sorted latencies every QoS figure
    # needs, the lazily derived int64 queue column) are charged up front,
    # so max_bytes stays an honest bound on resident memory.
    return int(
        result.latency_s.nbytes
        + result.start_s.nbytes
        + result.latency_s.nbytes
        + 8 * len(result)
    )


class SimulationResultCache(IdentityKeyedCache):
    """Memo of :class:`SimulationResult` values keyed per workload+pool.

    Keys are ``(id(model), id(trace), ((family, count), ...))`` over the
    pool's non-zero counts, in pool order.  See the module docstring for
    the full design rationale.

    Entries are bounded two ways: by count (``maxsize``, the LRU bound
    shared with every :class:`IdentityKeyedCache`) and by payload bytes
    (``max_bytes``) — a result holds four per-query arrays, so 256 entries
    of a short trace are trivial while 256 entries of a million-query
    trace would pin gigabytes.  The LRU tail is evicted while the total
    payload exceeds ``max_bytes``; a single over-budget entry is kept
    (evicting it would only force an immediate re-simulation).
    """

    def __init__(self, maxsize: int = 256, max_bytes: int = 256 * 1024 * 1024):
        super().__init__(maxsize)
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes!r}")
        self._max_bytes = int(max_bytes)
        self._nbytes_by_key: dict[tuple, int] = {}
        self._total_bytes = 0

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    @property
    def total_bytes(self) -> int:
        """Payload bytes currently held (array buffers of cached results)."""
        return self._total_bytes

    def stats(self) -> dict[str, int]:
        out = super().stats()
        with self._lock:
            out["bytes"] = self._total_bytes
            out["max_bytes"] = self._max_bytes
        return out

    def clear(self) -> None:
        with self._lock:
            self._nbytes_by_key.clear()
            self._total_bytes = 0
            super().clear()

    def _needs_evict(self) -> bool:
        return super()._needs_evict() or self._total_bytes > self._max_bytes

    def _on_drop_key(self, key: tuple) -> None:
        self._total_bytes -= self._nbytes_by_key.pop(key, 0)

    @staticmethod
    def _key(model, trace, families, counts) -> tuple:
        live = tuple((fam, count) for fam, count in zip(families, counts) if count)
        return (id(model), id(trace), live)

    def get(self, model, trace, families, counts) -> SimulationResult | None:
        """The memoized result for one simulation, or None on a miss."""
        return self._lookup(self._key(model, trace, families, counts))

    def put(
        self, model, trace, families, counts, result: SimulationResult
    ) -> SimulationResult:
        """Insert a freshly simulated result; returns the canonical entry.

        Insert-if-absent: when two threads race on the same simulation the
        first stored result wins and both callers observe it.
        """
        if self._maxsize == 0:
            return result
        key = self._key(model, trace, families, counts)
        _freeze(result)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            # Byte accounting precedes _insert so the eviction loop sees
            # the new entry's contribution; _on_drop_key reverses it.
            self._nbytes_by_key[key] = _result_nbytes(result)
            self._total_bytes += self._nbytes_by_key[key]
            return self._insert(key, result, model, trace)


#: Process-wide default memo: every fast-engine simulator shares it unless
#: given an explicit (e.g. isolated-for-benchmarking) instance.
_SHARED_CACHE = SimulationResultCache()


def shared_simulation_cache() -> SimulationResultCache:
    """The process-wide :class:`SimulationResultCache` instance."""
    return _SHARED_CACHE
