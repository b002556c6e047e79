"""Service-time generation shared by both simulation engines.

Service time = affine profile latency x multiplicative log-normal noise.
The noise models run-to-run inference latency variability (co-tenancy,
burstable-CPU credit throttling, GC/interrupt jitter), which real serving
systems exhibit and which disproportionately inflates the *tail* of
instances whose nominal latency already sits close to the QoS target —
exactly the mechanism that limits how much load cheap instance types can
absorb before breaking the p99.

Noise is generated deterministically from the trace seed and the family
index (common random numbers): a given (trace, pool-families) pair always
produces the same service-time matrix, so configuration evaluations are
reproducible and identical across the fast and reference engines.

Because the matrix only depends on ``(model, trace, families)`` — not on
the per-family instance counts — every pool evaluation of one search reuses
the same matrix.  :class:`ServiceTimeCache` memoizes it per workload (keyed
on object identity with weakref-based eviction, LRU-bounded), so the
lognormal generation is paid once per workload instead of once per
configuration evaluation.  Cached matrices are returned read-only.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.models.base import ModelProfile
from repro.simulator._identity_cache import IdentityKeyedCache
from repro.workload.trace import QueryTrace


def service_time_matrix(
    model: ModelProfile,
    trace: QueryTrace,
    families: tuple[str, ...],
) -> np.ndarray:
    """Per-(family, query) service times in seconds, shape ``(n_fam, n)``.

    Row ``i`` holds the service time of every trace query if served on
    family ``families[i]``, including that family's latency noise.  This is
    the uncached computation; hot paths go through :class:`ServiceTimeCache`.
    """
    n = len(trace)
    out = np.empty((len(families), n), dtype=float)
    base_seed = trace.seed if trace.seed is not None else 0
    for i, fam in enumerate(families):
        nominal = np.asarray(model.service_time_s(fam, trace.batch_sizes))
        sigma = model.noise_sigma_for(fam)
        if sigma > 0.0:
            # Keyed on (trace seed, family name) so the same family gets the
            # same noise regardless of its position in the pool vector.
            rng = np.random.default_rng(
                np.array(
                    [base_seed & 0xFFFFFFFF, _family_key(fam)], dtype=np.uint32
                )
            )
            noise = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n)
            out[i] = nominal * noise
        else:
            out[i] = nominal
    return out


def _family_key(family: str) -> int:
    """Stable 32-bit key for a family name (independent of PYTHONHASHSEED)."""
    key = 2166136261
    for ch in family.encode():
        key = ((key ^ ch) * 16777619) & 0xFFFFFFFF
    return key


class ServiceTimeCache(IdentityKeyedCache):
    """Memo of :func:`service_time_matrix` results keyed per workload.

    Keys are ``(id(model), id(trace), families)``: model and trace objects
    are used by identity, with the weakref-eviction + LRU + thread-safety
    machinery of :class:`IdentityKeyedCache` (shared with
    :class:`~repro.simulator.result_cache.SimulationResultCache`);
    ``maxsize=0`` disables caching (every call recomputes).

    The cache is thread-safe (``run_many(parallel=True)`` evaluates on a
    thread pool) and returns read-only arrays, so one matrix can back any
    number of concurrent simulations.
    """

    def __init__(self, maxsize: int = 128):
        super().__init__(maxsize)
        # Lazily materialized list-of-lists views of cached matrices and
        # per-trace arrival lists: the scalar dispatch loop runs on plain
        # python lists, and the ndarray->list conversion is a measurable
        # per-evaluation cost.  Consumers must treat them as read-only.
        # Row views are keyed like _entries and dropped with their entry
        # via _on_drop_key; arrival lists are keyed per trace id with
        # their own finalizer.
        self._rows: dict[tuple, list[list[float]]] = {}
        self._arrivals: dict[int, list[float]] = {}
        self._arrival_finalized_ids: set[int] = set()

    def _on_drop_key(self, key: tuple) -> None:
        self._rows.pop(key, None)

    def matrix(
        self,
        model: ModelProfile,
        trace: QueryTrace,
        families: tuple[str, ...],
    ) -> np.ndarray:
        """The (cached) service-time matrix for one workload; read-only."""
        fams = tuple(families)
        key = (id(model), id(trace), fams)
        hit = self._lookup(key)
        if hit is not None:
            return hit
        out = service_time_matrix(model, trace, fams)
        out.flags.writeable = False
        if self._maxsize == 0:
            return out
        with self._lock:
            return self._insert(key, out, model, trace)

    def rows(
        self,
        model: ModelProfile,
        trace: QueryTrace,
        families: tuple[str, ...],
    ) -> list[list[float]]:
        """The matrix as a list of per-family rows (read-only by contract)."""
        fams = tuple(families)
        key = (id(model), id(trace), fams)
        with self._lock:
            hit = self._rows.get(key)
            if hit is not None:
                self.hits += 1
                if key in self._entries:
                    self._entries.move_to_end(key)
                return hit
        matrix = self.matrix(model, trace, fams)
        rows = [row.tolist() for row in matrix]
        if self._maxsize == 0:
            return rows
        with self._lock:
            # Only attach to a live matrix entry so eviction stays in sync.
            if key in self._entries:
                self._rows.setdefault(key, rows)
                return self._rows[key]
            return rows

    def row_means(
        self,
        model: ModelProfile,
        trace: QueryTrace,
        families: tuple[str, ...],
    ) -> np.ndarray:
        """Mean service time per family row, computed on each call.

        The engine does not use it; it stays for callers (and
        instrumentation) that look it up by name.
        """
        return self.matrix(model, trace, families).mean(axis=1)

    def arrival_list(self, trace: QueryTrace) -> list[float]:
        """``trace.arrival_s.tolist()``, cached per trace object."""
        if self._maxsize == 0:
            return trace.arrival_s.tolist()
        obj_id = id(trace)
        with self._lock:
            hit = self._arrivals.get(obj_id)
            if hit is not None:
                return hit
        arrivals = trace.arrival_s.tolist()
        with self._lock:
            if obj_id not in self._arrivals:
                self._arrivals[obj_id] = arrivals
                if obj_id not in self._arrival_finalized_ids:
                    self._arrival_finalized_ids.add(obj_id)
                    weakref.finalize(
                        trace, _finalize_drop_arrivals, weakref.ref(self), obj_id
                    )
            return self._arrivals[obj_id]

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self._arrivals.clear()
            super().clear()

    # -- internals ----------------------------------------------------------
    def _drop_arrivals(self, obj_id: int) -> None:
        with self._lock:
            self._arrival_finalized_ids.discard(obj_id)
            self._arrivals.pop(obj_id, None)


def _finalize_drop_arrivals(
    cache_ref: "weakref.ref[ServiceTimeCache]", obj_id: int
) -> None:
    cache = cache_ref()
    if cache is not None:
        cache._drop_arrivals(obj_id)


#: Process-wide default cache: every simulator shares it unless given an
#: explicit (e.g. isolated-for-testing) instance.
_SHARED_CACHE = ServiceTimeCache()


def shared_service_cache() -> ServiceTimeCache:
    """The process-wide :class:`ServiceTimeCache` instance."""
    return _SHARED_CACHE
