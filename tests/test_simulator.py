"""Unit tests for the FCFS serving engine (hand-computed scenarios)."""

import numpy as np
import pytest

from repro.cloud.catalog import InstanceCatalog
from repro.cloud.instance_types import InstanceCategory, InstanceSpec
from repro.models.base import LatencyProfile, ModelCategory, ModelProfile
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.service import service_time_matrix
from repro.workload.trace import QueryTrace
from tests.conftest import make_toy_model, make_toy_trace

_DET_CATALOG = InstanceCatalog(
    [
        InstanceSpec(
            name="fast.large", family="fast", size="large",
            category=InstanceCategory.COMPUTE_OPTIMIZED,
            vcpus=2, memory_gib=8.0, price_per_hour=1.0,
        ),
        InstanceSpec(
            name="slow.large", family="slow", size="large",
            category=InstanceCategory.GENERAL_PURPOSE,
            vcpus=2, memory_gib=8.0, price_per_hour=0.2,
        ),
    ]
)


def det_model(fast_ms=10.0, slow_ms=30.0) -> ModelProfile:
    """Deterministic constant-latency model for hand-checked scenarios."""
    return ModelProfile(
        name="det",
        category=ModelCategory.GENERAL,
        description="deterministic test model",
        qos_target_ms=100.0,
        profiles={
            "fast": LatencyProfile(fast_ms, 0.0),
            "slow": LatencyProfile(slow_ms, 0.0),
        },
        arrival_rate_qps=10.0,
        batch_median=8.0,
        batch_sigma=0.5,
        max_batch=64,
        homogeneous_family="fast",
        diverse_pool=("fast", "slow"),
        catalog=_DET_CATALOG,
    )


def trace(arrivals, batches=None):
    arrivals = np.asarray(arrivals, dtype=float)
    if batches is None:
        batches = np.ones(len(arrivals), dtype=np.int64)
    return QueryTrace(arrivals, np.asarray(batches), rate_qps=1.0, seed=0)


class TestSingleServer:
    def test_no_contention(self):
        m = det_model(fast_ms=10.0)
        sim = InferenceServingSimulator(m)
        res = sim.simulate(trace([0.0, 0.1, 0.2]), PoolConfiguration.homogeneous("fast", 1))
        np.testing.assert_allclose(res.latency_s, [0.01, 0.01, 0.01])
        np.testing.assert_array_equal(res.start_s, res.arrival_s)

    def test_back_to_back_queueing(self):
        # Three arrivals at t=0; service 10ms each; one server.
        m = det_model(fast_ms=10.0)
        sim = InferenceServingSimulator(m)
        res = sim.simulate(trace([0.0, 0.0, 0.0]), PoolConfiguration.homogeneous("fast", 1))
        np.testing.assert_allclose(sorted(res.latency_s), [0.01, 0.02, 0.03])
        np.testing.assert_allclose(res.start_s, [0.0, 0.01, 0.02])

    def test_arrival_exactly_at_completion_needs_no_wait(self):
        m = det_model(fast_ms=10.0)
        sim = InferenceServingSimulator(m)
        res = sim.simulate(trace([0.0, 0.01]), PoolConfiguration.homogeneous("fast", 1))
        np.testing.assert_array_equal(res.start_s, [0.0, 0.01])


class TestHeterogeneousDispatch:
    def test_type_order_preference_when_both_free(self):
        m = det_model()
        sim = InferenceServingSimulator(m)
        pool = PoolConfiguration(("fast", "slow"), (1, 1))
        res = sim.simulate(trace([0.0]), pool)
        # Single query goes to the first family in type order: it is
        # served in the fast family's 10 ms, not the slow one's 30 ms.
        assert res.latency_s[0] == pytest.approx(0.010)

    def test_overflow_goes_to_slow_instance(self):
        m = det_model()
        sim = InferenceServingSimulator(m)
        pool = PoolConfiguration(("fast", "slow"), (1, 1))
        res = sim.simulate(trace([0.0, 0.001]), pool)
        # First query on fast (10 ms); the second finds it busy and runs
        # without waiting on the free slow server (30 ms).
        np.testing.assert_array_equal(res.start_s, [0.0, 0.001])
        np.testing.assert_allclose(res.latency_s, [0.010, 0.030])

    def test_fcfs_waits_for_earliest_free(self):
        # Two fast servers busy until 10ms/20ms; third query at t=1ms waits
        # for the earliest (10ms) and starts there.
        m = det_model(fast_ms=10.0)
        sim = InferenceServingSimulator(m)
        pool = PoolConfiguration.homogeneous("fast", 2)
        res = sim.simulate(trace([0.0, 0.0, 0.001]), pool)
        assert res.start_s[2] - res.arrival_s[2] == pytest.approx(0.009)

    def test_queries_served_in_arrival_order(self):
        m = det_model(fast_ms=10.0)
        sim = InferenceServingSimulator(m)
        res = sim.simulate(trace([0.0, 0.001, 0.002, 0.003]), PoolConfiguration.homogeneous("fast", 1))
        assert np.all(np.diff(res.start_s) >= 0.0)


class TestAccounting:
    def test_latency_decomposition(self, toy_model, toy_trace):
        sim = InferenceServingSimulator(toy_model)
        res = sim.simulate(toy_trace, PoolConfiguration(("g4dn", "t3"), (2, 2)))
        wait_s = res.start_s - res.arrival_s
        assert np.all(wait_s >= 0.0)
        assert np.all(res.latency_s > wait_s)  # every service time is positive

    def test_all_queries_served(self, toy_model, toy_trace):
        sim = InferenceServingSimulator(toy_model)
        res = sim.simulate(toy_trace, PoolConfiguration(("g4dn", "t3"), (2, 2)))
        assert len(res) == len(toy_trace)

    def test_overloaded_pool_queue_grows(self, toy_model):
        # One t3 serving 400 QPS is far beyond capacity: queue must grow.
        t = make_toy_trace(toy_model, n=600, seed=3)
        sim = InferenceServingSimulator(toy_model)
        res = sim.simulate(t, PoolConfiguration.homogeneous("t3", 1))
        assert res.queue_len_at_arrival.max() > 10
        assert np.mean(res.start_s - res.arrival_s) > 0.010


class TestErrors:
    def test_empty_pool_rejected(self, toy_model, toy_trace):
        sim = InferenceServingSimulator(toy_model)
        with pytest.raises(ValueError, match="empty pool"):
            sim.simulate(toy_trace, PoolConfiguration(("g4dn",), (0,)))

    def test_unknown_family_rejected(self, toy_model, toy_trace):
        sim = InferenceServingSimulator(toy_model)
        with pytest.raises(KeyError, match="no profile"):
            sim.simulate(toy_trace, PoolConfiguration(("m5",), (1,)))


class TestServiceMatrix:
    def test_noiseless_matches_profile(self, toy_model, toy_trace):
        mat = service_time_matrix(toy_model, toy_trace, ("g4dn", "t3"))
        expected = np.asarray(toy_model.service_time_s("g4dn", toy_trace.batch_sizes))
        np.testing.assert_allclose(mat[0], expected)

    def test_noise_is_deterministic_per_trace_and_family(self):
        m = make_toy_model(noise=0.2)
        t = make_toy_trace(m, n=200)
        a = service_time_matrix(m, t, ("g4dn", "t3"))
        b = service_time_matrix(m, t, ("g4dn", "t3"))
        np.testing.assert_allclose(a, b)

    def test_noise_independent_of_family_position(self):
        m = make_toy_model(noise=0.2)
        t = make_toy_trace(m, n=200)
        a = service_time_matrix(m, t, ("g4dn", "t3"))
        b = service_time_matrix(m, t, ("t3", "g4dn"))
        np.testing.assert_allclose(a[0], b[1])
        np.testing.assert_allclose(a[1], b[0])

    def test_noise_is_mean_one(self):
        m = make_toy_model(noise=0.3)
        t = make_toy_trace(m, n=20_000, seed=11)
        mat = service_time_matrix(m, t, ("g4dn",))
        nominal = np.asarray(m.service_time_s("g4dn", t.batch_sizes))
        ratio = mat[0] / nominal
        assert np.mean(ratio) == pytest.approx(1.0, rel=0.03)
