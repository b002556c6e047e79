"""Concurrency stress: 8 threads hammering the shared caches and the job
manager with the identity-cache lock assertions switched on.

repro-lint's ``lock-discipline`` rule proves the lock convention
*statically*; this suite is the runtime counterpart.  With
``repro.simulator._identity_cache.ASSERT_LOCK_HELD`` enabled, every
internal mutation helper (``_insert``/``_track``/``_untrack``/
``_drop_id``) raises immediately if the calling thread does not hold the
cache's RLock — so a forgotten ``with self._lock:`` fails deterministically
here instead of corrupting state one run in a thousand.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.api.scenario import EvaluationBudget, PoolSpec, Scenario, WorkloadSpec
from repro.service import JobManager
from repro.simulator import _identity_cache
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.events import EventHeapSimulator
from repro.simulator.metrics import SimulationResult
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache

N_THREADS = 8


@pytest.fixture(autouse=True)
def lock_asserts():
    previous = _identity_cache.set_lock_assertions(True)
    yield
    _identity_cache.set_lock_assertions(previous)


class FakeModel:
    """Weakref-able stand-in for a zoo model (identity is the key)."""


class FakeTrace:
    """Weakref-able stand-in for a workload trace."""


def make_result(n: int) -> SimulationResult:
    arrival = np.arange(n, dtype=float)
    return SimulationResult(
        latency_s=np.full(n, 0.01),
        start_s=arrival.copy(),
        arrival_s=arrival,
        queue_len_at_arrival=np.zeros(n, dtype=np.int64),
    )


def hammer(n_threads, worker):
    """Run ``worker(thread_index)`` on N threads; re-raise any failure."""
    errors = []
    barrier = threading.Barrier(n_threads)

    def runner(t):
        try:
            barrier.wait(timeout=10)
            worker(t)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(t,)) for t in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "stress worker hung"
    if errors:
        raise errors[0]


class TestLockAssertions:
    def test_unlocked_internal_mutation_raises(self):
        cache = SimulationResultCache(maxsize=4)
        model, trace = FakeModel(), FakeTrace()
        key = (id(model), id(trace), (("g4dn", 1),))
        with pytest.raises(AssertionError, match="without holding"):
            cache._insert(key, make_result(4), model, trace)

    def test_locked_internal_mutation_is_fine(self):
        cache = SimulationResultCache(maxsize=4)
        model, trace = FakeModel(), FakeTrace()
        key = (id(model), id(trace), (("g4dn", 1),))
        with cache._lock:
            cache._insert(key, make_result(4), model, trace)
        assert len(cache) == 1

    def test_public_api_passes_under_assertions(self):
        cache = SimulationResultCache(maxsize=4)
        model, trace = FakeModel(), FakeTrace()
        put = cache.put(model, trace, ("g4dn",), (1,), make_result(4))
        hit = cache.get(model, trace, ("g4dn",), (1,))
        assert hit is put
        cache.clear()
        assert len(cache) == 0


class TestResultCacheStress:
    def test_eight_threads_get_put_clear(self):
        cache = SimulationResultCache(maxsize=16)
        models = [FakeModel() for _ in range(4)]
        traces = [FakeTrace() for _ in range(6)]
        combos = [(m, t) for m in models for t in traces]

        def worker(t):
            for i in range(400):
                model, trace = combos[(t * 7 + i) % len(combos)]
                counts = (1 + (i % 3),)
                hit = cache.get(model, trace, ("g4dn",), counts)
                if hit is None:
                    hit = cache.put(model, trace, ("g4dn",), counts, make_result(8))
                # Shared frozen entry: readable, never writable.
                assert hit.p99_ms > 0
                assert not hit.latency_s.flags.writeable
                if i % 97 == 0:
                    cache.stats()
                if t == 0 and i % 151 == 0:
                    cache.clear()

        hammer(N_THREADS, worker)
        stats = cache.stats()
        assert stats["size"] <= 16
        assert stats["hits"] > 0 and stats["misses"] > 0

    def test_weakref_eviction_races_insertions(self):
        # Finalizer-driven eviction (_drop_id) runs on whatever thread GC
        # picks while other threads insert; assertions stay on throughout.
        cache = SimulationResultCache(maxsize=32)
        keep_model = FakeModel()

        def worker(t):
            for i in range(40):
                doomed = FakeTrace()
                cache.put(keep_model, doomed, ("g4dn",), (t,), make_result(4))
                del doomed
                if i % 10 == 0:
                    gc.collect()

        hammer(N_THREADS, worker)
        gc.collect()
        assert len(cache) == 0  # every trace died, every entry followed it

    def test_eight_threads_derive_queue_column(self, toy_model, toy_trace):
        # A memoized family-loop result derives its queue column on first
        # read; concurrent first readers may each derive it, but every
        # reader must see the reference, read-only.
        memo = SimulationResultCache(maxsize=4)
        pool = PoolConfiguration(("g4dn", "t3"), (2, 3))
        res = InferenceServingSimulator(toy_model, result_cache=memo).simulate(
            toy_trace, pool
        )
        ref = EventHeapSimulator(toy_model).simulate(toy_trace, pool)
        seen = [None] * N_THREADS

        def worker(t):
            seen[t] = res.queue_len_at_arrival

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hammer(N_THREADS, worker)
        finally:
            sys.setswitchinterval(previous)
        for queue in seen:
            np.testing.assert_array_equal(queue, ref.queue_len_at_arrival)
            assert not queue.flags.writeable


# --- job manager under the same assertions --------------------------------

def make_scenario(seed: int) -> Scenario:
    return Scenario(
        "MT-WND",
        workload=WorkloadSpec(n_queries=300, seed=seed),
        pool=PoolSpec(families=("g4dn", "t3"), bounds=(4, 4)),
        budget=EvaluationBudget(max_samples=4),
    )


class StubRunner:
    """Instant canned runner (no simulation): exercises job lifecycle only."""

    def __init__(self, scenario):
        self.scenario = scenario

    def materialize(self, seed=0):
        pass

    def run(self, strategy, *, seed=0, progress=None, **kwargs):
        from repro.core.result import SearchResult

        return SearchResult(
            method=strategy,
            best=None,
            history=(),
            exploration_cost_dollars=0.0,
            exhaustive_cost_dollars=0.0,
            converged=True,
            metadata={"seed": seed},
        )

    def fork(self, **workload_changes):
        return StubRunner(self.scenario.with_workload(**workload_changes))

    def cache_stats(self):
        return {}


class TestJobManagerStress:
    def test_eight_threads_submit_wait_fork(self):
        mgr = JobManager(runner_factory=StubRunner, max_workers=4)
        try:
            done_ids = []
            done_lock = threading.Lock()

            def worker(t):
                for i in range(3):
                    job = mgr.submit(
                        make_scenario(seed=t * 10 + i), "random", seed=t
                    )
                    finished = mgr.wait(job.id, timeout=30)
                    assert finished.state == "done", finished.state
                    if i == 0:
                        fork = mgr.fork(job.id, load_factor=1.5)
                        forked = mgr.wait(fork.id, timeout=30)
                        assert forked.state == "done", forked.state
                    with done_lock:
                        done_ids.append(job.id)

            hammer(N_THREADS, worker)
            assert len(done_ids) == N_THREADS * 3
            assert len(set(done_ids)) == len(done_ids)
        finally:
            mgr.shutdown(cancel_running=True)
