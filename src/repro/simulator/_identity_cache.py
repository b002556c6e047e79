"""Shared machinery for identity-keyed, weakref-evicted, LRU caches.

Both process-wide simulator caches — the per-workload
:class:`~repro.simulator.service.ServiceTimeCache` and the per-(workload,
pool) :class:`~repro.simulator.result_cache.SimulationResultCache` — key
their entries on the *identity* of the participating model and trace
objects: those are large, mutable-array-holding objects with no cheap
value hash, and a given live object always denotes the same workload.
Identity keys need a safety net, which this base class provides once:

* a ``weakref.finalize`` per participating object drops all its entries
  the moment the object is garbage collected, so a reused id can never
  resurrect a stale entry;
* finalizers are registered once per object (surviving LRU churn) and
  hold the cache *weakly*, so a process-lifetime tracked object (zoo
  model singletons) cannot pin a dead cache;
* entries are LRU-bounded by ``maxsize`` (``maxsize=0`` disables
  caching entirely);
* all mutation happens under an ``RLock`` (reentrant: a GC-triggered
  finalizer may fire while a cache method already holds the lock on the
  same thread), and ``hits`` / ``misses`` / ``evictions`` counters are
  kept for :meth:`IdentityKeyedCache.stats` introspection.

Subclasses store entries in ``self._entries`` under tuple keys whose
first two elements are ``id(model), id(trace)``, insert through
:meth:`IdentityKeyedCache._insert`, and may override
:meth:`IdentityKeyedCache._on_drop_key` to keep side tables (e.g. the
result memo's per-entry byte counts) in sync with eviction.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Any

#: When true, every internal mutation helper asserts that the calling
#: thread holds ``self._lock`` — the runtime counterpart of repro-lint's
#: ``lock-discipline`` rule.  Off by default (the check costs an RLock
#: introspection per mutation); ``tests/test_race_stress.py`` turns it on
#: while hammering the caches from many threads.
ASSERT_LOCK_HELD = False


def set_lock_assertions(enabled: bool) -> bool:
    """Toggle the debug lock assertions; returns the previous setting."""
    global ASSERT_LOCK_HELD
    previous = ASSERT_LOCK_HELD
    ASSERT_LOCK_HELD = bool(enabled)
    return previous


class IdentityKeyedCache:
    """Base for caches keyed on ``(id(model), id(trace), ...)`` tuples."""

    def __init__(self, maxsize: int):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize!r}")
        self._maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._keys_by_id: dict[int, set[tuple]] = {}
        # Object ids with a registered finalizer: registration must survive
        # LRU churn emptying a key set, or every re-insertion would stack
        # another finalizer on long-lived objects.  Entries are discarded in
        # _drop_id, which runs at object death — before the id can be reused.
        self._finalized_ids: set[int] = set()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def enabled(self) -> bool:
        """Whether this cache memoizes at all (``maxsize > 0``)."""
        return self._maxsize > 0

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus the current entry count."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._keys_by_id.clear()
            # _finalized_ids is kept: the finalizers stay registered on the
            # (still live) objects and must not be stacked again.

    # -- internals ----------------------------------------------------------
    def _assert_lock_held(self) -> None:
        """Debug guard: the caller must hold ``self._lock``.

        ``RLock._is_owned`` is CPython-internal; on runtimes without it
        the check degrades to a no-op rather than failing spuriously.
        """
        if not ASSERT_LOCK_HELD:
            return
        is_owned = getattr(self._lock, "_is_owned", None)
        if is_owned is not None and not is_owned():
            raise AssertionError(
                f"{type(self).__name__} internal mutation without holding"
                " self._lock"
            )

    def _lookup(self, key: tuple) -> Any | None:
        """Hit path: the entry (with LRU recency + counters) or None.

        A disabled cache (``maxsize=0``) is never consulted, so neither
        counter moves — both subclasses share this convention.
        """
        if self._maxsize == 0:
            return None
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return hit
            self.misses += 1
            return None

    # (call with the lock held)
    def _insert(self, key: tuple, value, *participants) -> Any:
        """Insert-if-absent + LRU trim; returns the canonical entry.

        ``participants`` must be exactly the two identity-keyed objects
        (model, trace) whose ids lead the key as ``key[0], key[1]`` —
        eviction bookkeeping (:meth:`_untrack`, :meth:`_drop_id`) reads
        the ids back from those positions.

        When two threads race on one key the first stored value wins and
        both callers observe it (entries are value-deterministic, but one
        canonical object keeps the memory bound meaningful).
        """
        self._assert_lock_held()
        assert len(participants) == 2 and key[0] == id(participants[0]) and key[
            1
        ] == id(participants[1]), "keys must lead with the two participants' ids"
        existing = self._entries.get(key)
        if existing is not None:
            return existing
        self._entries[key] = value
        for obj in participants:
            self._track(obj, key)
        # Never evict below one entry: a single entry over a subclass's
        # budget (_needs_evict override) must not spin the loop dry.
        while len(self._entries) > 1 and self._needs_evict():
            old_key, _ = self._entries.popitem(last=False)
            self._on_drop_key(old_key)
            self._untrack(old_key)
            self.evictions += 1
        return value

    def _needs_evict(self) -> bool:
        """Whether the LRU tail should be dropped (subclasses may extend)."""
        return len(self._entries) > self._maxsize

    def _on_drop_key(self, key: tuple) -> None:
        """Hook: an entry left the cache; drop any side-table views of it."""

    def _track(self, obj, key: tuple) -> None:
        self._assert_lock_held()
        keys = self._keys_by_id.setdefault(id(obj), set())
        if id(obj) not in self._finalized_ids:
            # First sighting of this object: drop all its keys when it dies.
            # The finalizer must hold the cache weakly — a bound method
            # would pin the cache for the tracked object's lifetime, which
            # for model-zoo singletons is the process lifetime.
            self._finalized_ids.add(id(obj))
            weakref.finalize(obj, _finalize_drop_id, weakref.ref(self), id(obj))
        keys.add(key)

    def _untrack(self, key: tuple) -> None:
        self._assert_lock_held()
        for obj_id in (key[0], key[1]):
            keys = self._keys_by_id.get(obj_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._keys_by_id[obj_id]

    def _drop_id(self, obj_id: int) -> None:
        with self._lock:
            self._assert_lock_held()
            self._finalized_ids.discard(obj_id)
            for key in self._keys_by_id.pop(obj_id, ()):
                if self._entries.pop(key, None) is not None:
                    self.evictions += 1
                self._on_drop_key(key)
                # The partner object may still track this key.
                for other in (key[0], key[1]):
                    if other != obj_id:
                        other_keys = self._keys_by_id.get(other)
                        if other_keys is not None:
                            other_keys.discard(key)
                            if not other_keys:
                                del self._keys_by_id[other]


def _finalize_drop_id(
    cache_ref: "weakref.ref[IdentityKeyedCache]", obj_id: int
) -> None:
    cache = cache_ref()
    if cache is not None:
        cache._drop_id(obj_id)
