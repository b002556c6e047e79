"""Tests for the process-wide whole-simulation result memo.

Mirrors ``tests/test_service_cache.py`` for the cache mechanics (identity
keys, LRU bound, weakref eviction, opt-out), then covers the layers above:
engine wiring, evaluator fork propagation, and ``ScenarioRunner.run_many``
determinism (serial vs parallel, memo on vs off) with cache-stats
introspection.
"""

import gc
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import EvaluationBudget, PoolSpec, Scenario, ScenarioRunner, WorkloadSpec
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.simulator import engine
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.events import EventHeapSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import (
    SimulationResultCache,
    shared_simulation_cache,
)
from repro.simulator.service import ServiceTimeCache
from tests.conftest import SUBSTRATES, dispatch_delta, make_toy_trace


@pytest.fixture
def memo():
    return SimulationResultCache(maxsize=8)


def make_sim(model, memo, **kwargs):
    return InferenceServingSimulator(model, result_cache=memo, **kwargs)


POOL = PoolConfiguration(("g4dn", "t3"), (1, 2))


class TestResultMemo:
    def test_hit_returns_same_object(self, memo, toy_model, toy_trace):
        sim = make_sim(toy_model, memo)
        a = sim.simulate(toy_trace, POOL)
        b = sim.simulate(toy_trace, POOL)
        assert a is b
        assert memo.hits == 1 and memo.misses == 1

    def test_memo_shared_across_simulators(self, memo, toy_model, toy_trace):
        a = make_sim(toy_model, memo).simulate(toy_trace, POOL)
        b = make_sim(toy_model, memo).simulate(toy_trace, POOL)
        assert a is b

    def test_results_identical_to_memoless(self, memo, toy_model, toy_trace):
        memoized = make_sim(toy_model, memo).simulate(toy_trace, POOL)
        plain = make_sim(
            toy_model, SimulationResultCache(maxsize=0)
        ).simulate(toy_trace, POOL)
        ref = EventHeapSimulator(toy_model).simulate(toy_trace, POOL)
        for field in ("latency_s", "start_s", "queue_len_at_arrival"):
            for res in (memoized, plain):
                np.testing.assert_array_equal(
                    getattr(res, field), getattr(ref, field), err_msg=field
                )

    def test_cached_result_arrays_are_read_only(self, memo, toy_model, toy_trace):
        res = make_sim(toy_model, memo).simulate(toy_trace, POOL)
        with pytest.raises(ValueError):
            res.latency_s[0] = 0.0
        with pytest.raises(ValueError):
            res.start_s[0] = 0.0
        with pytest.raises(ValueError):
            res.queue_len_at_arrival[0] = 99

    def test_distinct_pools_are_distinct_entries(self, memo, toy_model, toy_trace):
        sim = make_sim(toy_model, memo)
        sim.simulate(toy_trace, POOL)
        sim.simulate(toy_trace, PoolConfiguration(("g4dn", "t3"), (2, 1)))
        assert len(memo) == 2
        assert memo.misses == 2

    def test_heap_dispatch_bypasses_the_memo(self, memo, toy_model, toy_trace):
        # The heap reference runs the event-heap engine past the memo: it
        # neither returns the family loop's entry nor looks it up.
        a = make_sim(toy_model, memo, dispatch="family").simulate(toy_trace, POOL)
        with dispatch_delta() as counts:
            b = make_sim(toy_model, memo, dispatch="heap").simulate(toy_trace, POOL)
        assert counts["heap"] == 1 and counts["linear"] == 0
        assert b is not a
        assert memo.hits == 0 and memo.misses == 1 and len(memo) == 1
        for field in ("latency_s", "start_s", "queue_len_at_arrival"):
            assert getattr(b, field).tobytes() == getattr(a, field).tobytes(), field

    def test_distinct_traces_are_distinct_entries(self, memo, toy_model):
        sim = make_sim(toy_model, memo)
        # Keep the traces alive: a dead trace's entries are weakref-evicted.
        t1 = make_toy_trace(toy_model, n=50, seed=1)
        t2 = make_toy_trace(toy_model, n=50, seed=2)
        sim.simulate(t1, POOL)
        sim.simulate(t2, POOL)
        assert len(memo) == 2

    def test_lru_eviction_counts(self, toy_model):
        memo = SimulationResultCache(maxsize=2)
        sim = make_sim(toy_model, memo)
        traces = [make_toy_trace(toy_model, n=20, seed=s) for s in range(3)]
        for t in traces:
            sim.simulate(t, POOL)
        assert len(memo) == 2
        assert memo.evictions == 1
        # The oldest entry was evicted: asking again re-simulates.
        misses = memo.misses
        sim.simulate(traces[0], POOL)
        assert memo.misses == misses + 1

    def test_entries_dropped_when_trace_is_garbage_collected(self, toy_model):
        memo = SimulationResultCache(maxsize=8)
        sim = make_sim(toy_model, memo)
        trace = make_toy_trace(toy_model, n=20, seed=3)
        sim.simulate(trace, POOL)
        assert len(memo) == 1
        del trace
        gc.collect()
        assert len(memo) == 0
        assert memo.evictions == 1

    def test_maxsize_zero_disables_memoization(self, toy_model, toy_trace):
        memo = SimulationResultCache(maxsize=0)
        assert not memo.enabled
        sim = make_sim(toy_model, memo)
        a = sim.simulate(toy_trace, POOL)
        b = sim.simulate(toy_trace, POOL)
        assert a is not b
        np.testing.assert_array_equal(a.latency_s, b.latency_s)
        assert len(memo) == 0
        assert memo.hits == 0 and memo.misses == 0

    def test_stats_snapshot(self, memo, toy_model, toy_trace):
        sim = make_sim(toy_model, memo)
        res = sim.simulate(toy_trace, POOL)
        sim.simulate(toy_trace, POOL)
        stats = memo.stats()
        assert stats.pop("bytes") > 0
        assert stats.pop("max_bytes") == memo.max_bytes
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "size": 1,
            "maxsize": 8,
        }
        assert memo.total_bytes >= res.latency_s.nbytes

    def test_entry_charges_four_per_query_arrays(self, memo, toy_model):
        """A result stores latencies and start times; the memo charges
        them plus the sorted latencies and queue column a read attaches
        later: four 8-byte values per query."""
        n = 4000
        trace = make_toy_trace(toy_model, n=n, seed=5)
        res = make_sim(toy_model, memo).simulate(trace, POOL)
        assert memo.total_bytes == 4 * 8 * n
        res.qos_satisfaction_rate(toy_model.qos_target_ms)
        held = res.latency_s.nbytes + res.start_s.nbytes
        derived = res._latency_s_ascending().nbytes
        derived += res.queue_len_at_arrival.nbytes
        assert held + derived == memo.total_bytes

    def test_byte_budget_evicts_lru(self, toy_model):
        t1 = make_toy_trace(toy_model, n=50, seed=1)
        t2 = make_toy_trace(toy_model, n=50, seed=2)
        probe = SimulationResultCache(maxsize=8)
        make_sim(toy_model, probe).simulate(t1, POOL)
        one_entry = probe.total_bytes
        # Room for one entry but not two: the second insert evicts the first.
        memo = SimulationResultCache(maxsize=8, max_bytes=int(1.5 * one_entry))
        sim = make_sim(toy_model, memo)
        sim.simulate(t1, POOL)
        sim.simulate(t2, POOL)
        assert len(memo) == 1
        assert memo.evictions == 1
        assert memo.total_bytes == one_entry
        # t2 (the newest) survived; t1 re-simulates.
        misses = memo.misses
        sim.simulate(t2, POOL)
        assert memo.misses == misses
        sim.simulate(t1, POOL)
        assert memo.misses == misses + 1

    def test_single_over_budget_entry_is_kept(self, toy_model, toy_trace):
        memo = SimulationResultCache(maxsize=8, max_bytes=1)
        sim = make_sim(toy_model, memo)
        a = sim.simulate(toy_trace, POOL)
        # Over budget but the only entry: evicting it would just force an
        # immediate re-simulation, so it stays (and still serves hits).
        assert len(memo) == 1
        assert sim.simulate(toy_trace, POOL) is a

    def test_invalid_max_bytes_rejected(self):
        with pytest.raises(ValueError):
            SimulationResultCache(max_bytes=-1)

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            SimulationResultCache(maxsize=-1)

    def test_memo_is_collectable_despite_long_lived_tracked_objects(self):
        """Finalizers must not pin the memo while zoo models live forever."""
        import weakref

        from repro.models.zoo import get_model
        from tests.conftest import make_toy_model

        model = get_model("MT-WND")  # process-lifetime singleton
        toy = make_toy_model()
        trace = make_toy_trace(toy, n=20, seed=4)
        memo = SimulationResultCache()
        memo.put(model, trace, ("g4dn",), (1,), make_sim(
            toy, SimulationResultCache(maxsize=0)
        ).simulate(trace, PoolConfiguration(("g4dn",), (1,))))
        ref = weakref.ref(memo)
        del memo
        gc.collect()
        assert ref() is None

    def test_concurrent_threads_share_one_memo(self, toy_model, toy_trace):
        memo = SimulationResultCache(maxsize=8)
        barrier = threading.Barrier(6)

        def hammer(_):
            sim = make_sim(toy_model, memo)
            barrier.wait()
            return sim.simulate(toy_trace, POOL)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(hammer, range(6)))
        # One canonical entry; every thread observed an equal result and
        # each lookup counted exactly one hit or miss.
        assert len(memo) == 1
        assert memo.hits + memo.misses == 6
        for res in results[1:]:
            np.testing.assert_array_equal(res.latency_s, results[0].latency_s)


class TestEngineAndEvaluatorWiring:
    def test_default_is_the_shared_memo(self, toy_model):
        sim = InferenceServingSimulator(toy_model)
        assert sim.result_cache is shared_simulation_cache()

    def test_reference_engine_stays_independent(self, memo, toy_model, toy_trace):
        # The event-heap engine must keep simulating from scratch — it
        # cross-validates the fast engine, so handing it memoized fast-path
        # results would make the equivalence suite vacuous.
        fast = make_sim(toy_model, memo).simulate(toy_trace, POOL)
        ref = EventHeapSimulator(toy_model).simulate(toy_trace, POOL)
        assert memo.hits == 0  # the reference run never touched the memo
        np.testing.assert_allclose(fast.latency_s, ref.latency_s, rtol=0, atol=0)

    def test_memo_hit_skips_dispatch(self, memo, toy_model, toy_trace, monkeypatch):
        sim = make_sim(toy_model, memo)
        first = sim.simulate(toy_trace, POOL)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("dispatch ran despite a memo hit")

        for loop in ("_run_families", "_serve_family", "_native_loops"):
            monkeypatch.setattr(engine, loop, boom)
        monkeypatch.setattr(engine._NativeLoops, "run", boom)
        assert sim.simulate(toy_trace, POOL) is first

    def test_evaluator_forks_share_the_memo(self, memo, toy_model, toy_trace, toy_space):
        objective = RibbonObjective(toy_space, qos_rate_target=0.95)
        parent = ConfigurationEvaluator(
            toy_model, toy_trace, objective, result_cache=memo
        )
        first = parent.evaluate(toy_space.pool((1, 2)))
        assert memo.misses == 1
        # A fork on the *same* trace (run_many's fresh_evaluator pattern)
        # re-evaluates for free.
        fork = parent.fork(toy_trace)
        rec = fork.evaluate(toy_space.pool((1, 2)))
        assert memo.hits == 1 and memo.misses == 1
        assert rec.qos_rate == first.qos_rate
        # A fork on a different trace is a distinct workload.
        other = parent.fork(make_toy_trace(toy_model, n=60, seed=11))
        other.evaluate(toy_space.pool((1, 2)))
        assert memo.misses == 2

    def test_memoized_search_is_bit_identical(self, toy_model, toy_trace, toy_space):
        from repro.core.optimizer import RibbonOptimizer

        objective = RibbonObjective(toy_space, qos_rate_target=0.95)

        def run(result_cache):
            evaluator = ConfigurationEvaluator(
                toy_model, toy_trace, objective, result_cache=result_cache
            )
            return RibbonOptimizer(max_samples=15, seed=3).search(evaluator)

        plain = run(SimulationResultCache(maxsize=0))
        memo = SimulationResultCache()
        cold = run(memo)  # populates the memo
        warm = run(memo)  # every simulation is a hit
        assert memo.hits > 0
        for res in (cold, warm):
            assert [r.pool.counts for r in res.history] == [
                r.pool.counts for r in plain.history
            ]
            assert [r.qos_rate for r in res.history] == [
                r.qos_rate for r in plain.history
            ]
            assert res.best.pool.counts == plain.best.pool.counts
            assert res.best.cost_per_hour == plain.best.cost_per_hour


def _fresh_search(scenario, memo):
    runner = ScenarioRunner(scenario, simulation_cache=memo)
    start = runner.default_start()
    return runner.run("ribbon", start=start), runner.homogeneous_optimum()


class TestOneKeyPerPool:
    @pytest.mark.parametrize("model", ["MT-WND", "ResNet50"])
    def test_one_fresh_search_shares_memo_entries(self, model):
        """Bounds bisection, homogeneous scan and search share entries
        within one fresh search, and change none of its numbers."""
        scenario = Scenario(
            model=model,
            workload=WorkloadSpec(n_queries=1500),
            budget=EvaluationBudget(max_samples=12),
        )
        memo = SimulationResultCache()
        result, homog = _fresh_search(scenario, memo)
        plain, plain_homog = _fresh_search(
            scenario, SimulationResultCache(maxsize=0)
        )
        assert memo.hits > 0
        assert result.history == plain.history
        assert result.best == plain.best
        assert homog == plain_homog

    def test_zero_count_families_share_the_homogeneous_entry(
        self, memo, toy_model, toy_trace
    ):
        sim = make_sim(toy_model, memo)
        padded = sim.simulate(
            toy_trace, PoolConfiguration(("g4dn", "t3", "c5"), (0, 3, 0))
        )
        alone = sim.simulate(toy_trace, PoolConfiguration.homogeneous("t3", 3))
        assert alone is padded
        assert len(memo) == 1 and memo.hits == 1
        ref = EventHeapSimulator(toy_model).simulate(
            toy_trace, PoolConfiguration.homogeneous("t3", 3)
        )
        for substrate in SUBSTRATES:
            with substrate():
                plain = make_sim(toy_model, SimulationResultCache(maxsize=0)).simulate(
                    toy_trace, PoolConfiguration(("g4dn", "t3", "c5"), (0, 3, 0))
                )
            for res in (alone, plain):
                for field in ("latency_s", "start_s", "queue_len_at_arrival"):
                    np.testing.assert_array_equal(
                        getattr(res, field),
                        getattr(ref, field),
                        err_msg=f"{substrate.__name__}: {field}",
                    )

    def test_family_order_stays_in_the_key(self, memo, toy_model, toy_trace):
        sim = make_sim(toy_model, memo)
        sim.simulate(toy_trace, PoolConfiguration(("g4dn", "t3"), (1, 2)))
        sim.simulate(toy_trace, PoolConfiguration(("t3", "g4dn"), (2, 1)))
        assert len(memo) == 2 and memo.hits == 0


SWEEP = Scenario(
    model="MT-WND",
    workload=WorkloadSpec(n_queries=600, seed=1),
    pool=PoolSpec(families=("g4dn", "c5"), bounds=(5, 6)),
    budget=EvaluationBudget(max_samples=8),
)

SEEDS = (0, 1, 2, 3)


def _fingerprint(result):
    return (
        result.best.pool.counts if result.best else None,
        result.best.cost_per_hour if result.best else None,
        [r.pool.counts for r in result.history],
        [r.qos_rate for r in result.history],
    )


def _isolated_runner(maxsize):
    # Isolated caches so assertions on hit counts are not polluted by
    # other tests sharing the process-wide instances.
    return ScenarioRunner(
        SWEEP,
        service_cache=ServiceTimeCache(),
        simulation_cache=SimulationResultCache(maxsize=maxsize),
    )


class TestRunManyUnderTheMemo:
    def test_sweep_reuses_simulations_across_seeds(self):
        runner = _isolated_runner(256)
        runner.run_many("ribbon", seeds=SEEDS)
        stats = runner.cache_stats()
        # The pinned workload makes every seed search the same trace, so
        # overlapping configurations across seeds must hit the memo.
        assert stats["simulation"]["hits"] > 0
        assert stats["simulation"]["misses"] > 0
        assert stats["service"]["misses"] == 1  # one workload, one matrix

    def test_serial_parallel_and_memoless_all_agree(self):
        memoless = _isolated_runner(0).run_many("ribbon", seeds=SEEDS)
        serial = _isolated_runner(256).run_many("ribbon", seeds=SEEDS)
        parallel_runner = _isolated_runner(256)
        parallel = parallel_runner.run_many("ribbon", seeds=SEEDS, parallel=True)
        assert parallel_runner.cache_stats()["simulation"]["hits"] > 0
        for seed in SEEDS:
            assert _fingerprint(serial[seed]) == _fingerprint(memoless[seed])
            assert _fingerprint(parallel[seed]) == _fingerprint(memoless[seed])

    def test_opt_out_runner_never_memoizes(self):
        runner = _isolated_runner(0)
        runner.run_many("random", seeds=(0, 1))
        stats = runner.cache_stats()
        assert stats["simulation"]["hits"] == 0
        assert stats["simulation"]["misses"] == 0
        assert stats["simulation"]["size"] == 0

    def test_fork_propagates_the_memo(self):
        runner = _isolated_runner(256)
        forked = runner.fork(load_factor=1.2)
        assert forked.simulation_cache is runner.simulation_cache
        assert forked.service_cache is runner.service_cache

    def test_cache_stats_shape(self):
        stats = _isolated_runner(64).cache_stats()
        assert set(stats) == {"simulation", "service", "dispatch"}
        for name in ("simulation", "service"):
            assert {"hits", "misses", "evictions", "size", "maxsize"} <= set(
                stats[name]
            )
        assert {
            "linear",
            "heap",
            "vector",
            "vector_hetero",
            "vector_fallback",
        } == set(stats["dispatch"])
