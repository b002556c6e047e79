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
workload identity with the pool's ``(families, counts)`` value tuple and
the QoS-relevant simulation option (``track_queue``); the dispatch path
is *not* part of the key because both paths are bit-identical by
contract.  Cached results have all their arrays frozen read-only, so one
result can back any number of concurrent consumers
(``run_many(parallel=True)`` simulates on a thread pool).  ``maxsize=0``
disables the memo entirely (explicit opt-out); results hold ~5 arrays of
``len(trace)`` floats each, bounded both by entry count (``maxsize``)
and by total payload bytes (``max_bytes``).

Hits, misses, and evictions are counted for introspection
(:meth:`SimulationResultCache.stats`, surfaced by
``ScenarioRunner.cache_stats``).
"""

from __future__ import annotations

import os

from repro.simulator._identity_cache import IdentityKeyedCache
from repro.simulator.disk_cache import DiskResultStore, result_key
from repro.simulator.metrics import SimulationResult


def _freeze(result: SimulationResult) -> SimulationResult:
    """Make every stored array of a result read-only (shared-cache safety).

    Arrays a result derives on first read are frozen as they are derived;
    touching them here would force the derivation.
    """
    for arr in result._held_arrays():
        if arr.flags.writeable:
            arr.flags.writeable = False
    return result


def _result_nbytes(result: SimulationResult) -> int:
    return int(
        sum(arr.nbytes for arr in result._held_arrays())
        # The derived-metrics memo lazily attaches one more per-query
        # array (the sorted latencies) once any QoS/percentile figure is
        # read — which the evaluator does for every result — so charge it
        # up front to keep max_bytes an honest bound on resident memory.
        + result.latency_s.nbytes
    )


class SimulationResultCache(IdentityKeyedCache):
    """Memo of :class:`SimulationResult` values keyed per workload+pool.

    Keys are ``(id(model), id(trace), families, counts, track_queue)``.
    See the module docstring for the full design rationale.

    Entries are bounded two ways: by count (``maxsize``, the LRU bound
    shared with every :class:`IdentityKeyedCache`) and by payload bytes
    (``max_bytes``) — a result holds ~5 per-query arrays, so 256 entries
    of a short trace are trivial while 256 entries of a million-query
    trace would pin gigabytes.  The LRU tail is evicted while the total
    payload exceeds ``max_bytes``; a single over-budget entry is kept
    (evicting it would only force an immediate re-simulation).
    """

    def __init__(
        self,
        maxsize: int = 256,
        max_bytes: int = 256 * 1024 * 1024,
        *,
        disk: "DiskResultStore | str | os.PathLike | None" = None,
    ):
        super().__init__(maxsize)
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes!r}")
        self._max_bytes = int(max_bytes)
        self._nbytes_by_key: dict[tuple, int] = {}
        self._total_bytes = 0
        # Optional disk tier (opt-in): misses fall through to a
        # content-addressed DiskResultStore, puts write through, so
        # identical sweeps survive process restarts.  Disk keys are
        # content digests (see repro.simulator.disk_cache) — identity
        # keys cannot cross processes.
        if disk is not None and not isinstance(disk, DiskResultStore):
            disk = DiskResultStore(disk)
        self._disk = disk

    @property
    def max_bytes(self) -> int:
        return self._max_bytes

    @property
    def total_bytes(self) -> int:
        """Payload bytes currently held (array buffers of cached results)."""
        return self._total_bytes

    @property
    def disk(self) -> DiskResultStore | None:
        """The disk tier backing this cache, or None (memory-only)."""
        return self._disk

    def stats(self) -> dict[str, int]:
        out = super().stats()
        with self._lock:
            out["bytes"] = self._total_bytes
            out["max_bytes"] = self._max_bytes
        if self._disk is not None:
            for key, value in self._disk.stats().items():
                out["disk_" + key] = value
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
    def _key(model, trace, families, counts, track_queue) -> tuple:
        return (id(model), id(trace), tuple(families), tuple(counts), bool(track_queue))

    def get(
        self, model, trace, families, counts, track_queue
    ) -> SimulationResult | None:
        """The memoized result for one simulation, or None on a miss.

        A memory miss falls through to the disk tier (when configured):
        a disk hit is promoted into the memory tier — without writing
        back to disk — and returned frozen, exactly like a locally
        simulated result.
        """
        key = self._key(model, trace, families, counts, track_queue)
        hit = self._lookup(key)
        if hit is not None:
            return hit
        if self._disk is not None and self._maxsize != 0:
            stored = self._disk.get(
                result_key(model, trace, families, counts, track_queue)
            )
            if stored is not None:
                return self._admit(key, stored, model, trace)
        return None

    def put(
        self, model, trace, families, counts, track_queue, result: SimulationResult
    ) -> SimulationResult:
        """Insert a freshly simulated result; returns the canonical entry.

        Insert-if-absent: when two threads race on the same simulation the
        first stored result wins and both callers observe it.  With a
        disk tier configured the result is also written through (first
        write wins there too).
        """
        if self._maxsize == 0:
            return result
        if self._disk is not None:
            self._disk.put(
                result_key(model, trace, families, counts, track_queue), result
            )
        return self._admit(
            self._key(model, trace, families, counts, track_queue),
            result,
            model,
            trace,
        )

    def _admit(self, key, result, model, trace) -> SimulationResult:
        """Freeze + insert into the memory tier (no disk write)."""
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
