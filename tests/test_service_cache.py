"""Tests for the per-workload service-time matrix cache."""

import gc

import numpy as np
import pytest

from repro.core.objective import RibbonObjective
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.search_space import SearchSpace
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.events import EventHeapSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.service import (
    ServiceTimeCache,
    service_time_matrix,
    shared_service_cache,
)
from tests.conftest import make_toy_model, make_toy_trace


@pytest.fixture
def cache():
    return ServiceTimeCache(maxsize=8)


class TestMatrixCaching:
    def test_hit_returns_same_object(self, cache, toy_model, toy_trace):
        fams = ("g4dn", "t3")
        a = cache.matrix(toy_model, toy_trace, fams)
        b = cache.matrix(toy_model, toy_trace, fams)
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_matches_uncached_computation(self, cache, toy_model, toy_trace):
        fams = ("g4dn", "t3")
        cached = cache.matrix(toy_model, toy_trace, fams)
        fresh = service_time_matrix(toy_model, toy_trace, fams)
        np.testing.assert_array_equal(cached, fresh)

    def test_cached_matrix_is_read_only(self, cache, toy_model, toy_trace):
        mat = cache.matrix(toy_model, toy_trace, ("g4dn",))
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_distinct_families_are_distinct_entries(
        self, cache, toy_model, toy_trace
    ):
        a = cache.matrix(toy_model, toy_trace, ("g4dn", "t3"))
        b = cache.matrix(toy_model, toy_trace, ("t3", "g4dn"))
        assert len(cache) == 2
        np.testing.assert_array_equal(a[0], b[1])

    def test_distinct_traces_are_distinct_entries(self, cache, toy_model):
        t1 = make_toy_trace(toy_model, n=50, seed=1)
        t2 = make_toy_trace(toy_model, n=50, seed=2)
        cache.matrix(toy_model, t1, ("g4dn",))
        cache.matrix(toy_model, t2, ("g4dn",))
        assert len(cache) == 2

    def test_lru_eviction(self, toy_model):
        cache = ServiceTimeCache(maxsize=2)
        traces = [make_toy_trace(toy_model, n=20, seed=s) for s in range(3)]
        for t in traces:
            cache.matrix(toy_model, t, ("g4dn",))
        assert len(cache) == 2
        # The oldest entry was evicted: asking again recomputes.
        misses = cache.misses
        cache.matrix(toy_model, traces[0], ("g4dn",))
        assert cache.misses == misses + 1

    def test_entries_dropped_when_trace_is_garbage_collected(self, toy_model):
        cache = ServiceTimeCache(maxsize=8)
        trace = make_toy_trace(toy_model, n=20, seed=3)
        cache.matrix(toy_model, trace, ("g4dn",))
        assert len(cache) == 1
        del trace
        gc.collect()
        assert len(cache) == 0

    def test_maxsize_zero_disables_caching(self, toy_model, toy_trace):
        cache = ServiceTimeCache(maxsize=0)
        a = cache.matrix(toy_model, toy_trace, ("g4dn",))
        b = cache.matrix(toy_model, toy_trace, ("g4dn",))
        assert a is not b
        np.testing.assert_array_equal(a, b)
        assert len(cache) == 0

    def test_rows_equal_the_matrix_as_lists(self, cache, toy_model, toy_trace):
        fams = ("g4dn", "t3")
        rows = cache.rows(toy_model, toy_trace, fams)
        assert rows == cache.matrix(toy_model, toy_trace, fams).tolist()

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            ServiceTimeCache(maxsize=-1)


class TestWiring:
    def test_both_engines_share_the_default_cache(self, toy_model):
        fast = InferenceServingSimulator(toy_model)
        ref = EventHeapSimulator(toy_model)
        assert fast.service_cache is shared_service_cache()
        assert ref._service_cache is shared_service_cache()

    def test_engines_agree_through_one_cache(self, toy_model, toy_trace):
        cache = ServiceTimeCache()
        pool = PoolConfiguration(("g4dn", "t3"), (1, 2))
        fast = InferenceServingSimulator(toy_model, service_cache=cache)
        ref = EventHeapSimulator(toy_model, service_cache=cache)
        a = fast.simulate(toy_trace, pool)
        b = ref.simulate(toy_trace, pool)
        np.testing.assert_allclose(a.latency_s, b.latency_s, rtol=0, atol=0)

    def test_evaluator_propagates_cache_through_fork(
        self, toy_model, toy_trace, toy_space
    ):
        cache = ServiceTimeCache()
        objective = RibbonObjective(toy_space, qos_rate_target=0.95)
        evaluator = ConfigurationEvaluator(
            toy_model, toy_trace, objective, service_cache=cache
        )
        evaluator.evaluate(toy_space.pool((1, 1)))
        assert cache.misses == 1
        fork = evaluator.fork(make_toy_trace(toy_model, n=60, seed=11))
        fork.evaluate(toy_space.pool((1, 1)))
        assert cache.misses == 2  # same cache object, new trace key
        assert len(cache) == 2

    def test_one_search_computes_the_matrix_once(
        self, toy_model, toy_trace, toy_space
    ):
        cache = ServiceTimeCache()
        objective = RibbonObjective(toy_space, qos_rate_target=0.95)
        evaluator = ConfigurationEvaluator(
            toy_model, toy_trace, objective, service_cache=cache
        )
        for counts in ((1, 0), (2, 1), (0, 3), (4, 6), (1, 1)):
            evaluator.evaluate(toy_space.pool(counts))
        assert cache.misses == 1
        assert cache.hits >= 4

    def test_cache_results_identical_to_cacheless(self, toy_model, toy_trace):
        from repro.simulator.result_cache import SimulationResultCache

        pool = PoolConfiguration(("g4dn", "t3"), (2, 3))
        # The whole-result memo is disabled on both sides: it would hand
        # the cacheless simulator the cached simulator's result verbatim,
        # turning this A-vs-B comparison into A-vs-A.
        cached = InferenceServingSimulator(
            toy_model, result_cache=SimulationResultCache(maxsize=0)
        )
        uncached = InferenceServingSimulator(
            toy_model,
            service_cache=ServiceTimeCache(maxsize=0),
            result_cache=SimulationResultCache(maxsize=0),
        )
        a = cached.simulate(toy_trace, pool)
        b = uncached.simulate(toy_trace, pool)
        assert a is not b
        np.testing.assert_array_equal(a.latency_s, b.latency_s)
        np.testing.assert_array_equal(a.queue_len_at_arrival, b.queue_len_at_arrival)


class TestCacheLifetime:
    def test_cache_is_collectable_despite_long_lived_tracked_objects(self):
        """Finalizers must not pin the cache while zoo models live forever."""
        import weakref

        from repro.models.zoo import get_model

        model = get_model("MT-WND")  # process-lifetime singleton
        trace = make_toy_trace(make_toy_model(), n=20, seed=4)
        cache = ServiceTimeCache()
        cache.matrix(model, trace, ("g4dn",))
        ref = weakref.ref(cache)
        del cache
        gc.collect()
        assert ref() is None
