"""Queueing-theory properties of the FCFS serving system.

These pin behaviours that follow from the *definition* of the policy, not
from the implementation — a refactor of either engine must preserve them.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import LatencyProfile
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.workload.trace import QueryTrace
from tests.conftest import make_tied_trace, make_toy_model, make_toy_trace


def random_trace(seed: int, n: int, rate: float = 300.0) -> QueryTrace:
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
    batches = np.clip(
        np.rint(rng.lognormal(np.log(30.0), 0.8, size=n)), 1, 256
    ).astype(np.int64)
    return QueryTrace(arrivals, batches, rate_qps=rate, seed=seed)


def bursty_trace(seed: int, n: int, rate: float = 300.0) -> QueryTrace:
    """Alternating bursts (5x the mean rate) and lulls of 40 queries."""
    rng = np.random.default_rng(seed)
    phase = np.where((np.arange(n) // 40) % 2 == 0, 0.2, 1.8)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n) * phase)
    batches = np.clip(
        np.rint(rng.lognormal(np.log(30.0), 0.8, size=n)), 1, 256
    ).astype(np.int64)
    return QueryTrace(arrivals, batches, rate_qps=rate, seed=seed)


TRACE_LAWS = {"random": random_trace, "bursty": bursty_trace, "tied": make_tied_trace}


class TestSingleServerRecurrence:
    """One server: FCFS reduces to the Lindley recurrence
    start_i = max(arrival_i, finish_{i-1})."""

    @given(seed=st.integers(0, 5000), n=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_matches_lindley_recurrence(self, seed, n):
        model = make_toy_model()
        trace = random_trace(seed, n)
        res = InferenceServingSimulator(model).simulate(
            trace, PoolConfiguration.homogeneous("g4dn", 1)
        )
        service = np.asarray(model.service_time_s("g4dn", trace.batch_sizes))
        finish = 0.0
        for i in range(n):
            start = max(float(trace.arrival_s[i]), finish)
            finish = start + float(service[i])
            expected = finish - float(trace.arrival_s[i])
            assert res.latency_s[i] == pytest.approx(expected, rel=1e-12)


class TestTimeRescaling:
    """Scaling every arrival gap and every service time by c scales every
    latency by exactly c (the system is dimensionless)."""

    @given(seed=st.integers(0, 5000), c=st.floats(0.25, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_latencies_scale_linearly(self, seed, c):
        model = make_toy_model()
        scaled_profiles = {
            fam: LatencyProfile(p.base_ms * c, p.slope_ms * c)
            for fam, p in model.profiles.items()
        }
        scaled_model = dataclasses.replace(model, profiles=scaled_profiles)
        trace = random_trace(seed, 150)
        scaled_trace = QueryTrace(
            trace.arrival_s * c, trace.batch_sizes, trace.rate_qps / c, trace.seed
        )
        pool = PoolConfiguration(("g4dn", "t3"), (2, 2))
        base = InferenceServingSimulator(model).simulate(trace, pool)
        scaled = InferenceServingSimulator(scaled_model).simulate(
            scaled_trace, pool
        )
        np.testing.assert_allclose(
            scaled.latency_s, base.latency_s * c, rtol=1e-9
        )


class TestWorkConservation:
    """The FCFS dispatcher never idles an instance while queries wait."""

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_no_wait_while_any_instance_idle(self, seed):
        model = make_toy_model()
        trace = random_trace(seed, 200)
        pool = PoolConfiguration(("g4dn", "t3"), (1, 2))
        res = InferenceServingSimulator(model).simulate(trace, pool)
        # A query that waited must have found every instance busy at its
        # arrival: its start equals some other query's finish time.
        starts = res.start_s
        finishes = trace.arrival_s + res.latency_s
        waited = starts > trace.arrival_s
        for q in np.flatnonzero(waited):
            assert np.any(
                np.isclose(starts[q], finishes[:q], rtol=0, atol=1e-12)
            ), f"query {q} waited but started at no completion instant"

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_total_busy_time_bounded_by_pool_capacity(self, seed):
        model = make_toy_model()
        trace = random_trace(seed, 200)
        pool = PoolConfiguration(("g4dn", "t3"), (2, 1))
        res = InferenceServingSimulator(model).simulate(trace, pool)
        # At every start instant, the queries in service (started by then,
        # not yet finished) never outnumber the pool's instances.  Finish
        # times are rebuilt from latencies, so they get a rounding slack.
        starts = res.start_s
        finishes = np.sort(trace.arrival_s + res.latency_s)
        started = np.searchsorted(starts, starts, side="right")
        finished = np.searchsorted(finishes, starts + 1e-12, side="right")
        assert np.all(started - finished <= pool.total_instances)


class TestQoSMonotonicity:
    def test_rate_monotone_in_latency_target(self, toy_model):
        trace = make_toy_trace(toy_model, n=400)
        res = InferenceServingSimulator(toy_model).simulate(
            trace, PoolConfiguration(("g4dn", "t3"), (1, 1))
        )
        rates = [res.qos_satisfaction_rate(t) for t in (5.0, 10.0, 20.0, 50.0)]
        assert rates == sorted(rates)

    def test_prices_never_affect_serving(self, toy_model):
        """The simulator must be oblivious to prices — only the optimizer
        sees cost."""
        trace = make_toy_trace(toy_model, n=300)
        pool = PoolConfiguration(("g4dn", "t3"), (1, 2))
        # Memo disabled: the second run must actually re-simulate for the
        # repeatability comparison to mean anything.
        a = InferenceServingSimulator(
            toy_model, result_cache=SimulationResultCache(maxsize=0)
        ).simulate(trace, pool)
        b = InferenceServingSimulator(
            toy_model, result_cache=SimulationResultCache(maxsize=0)
        ).simulate(trace, pool)
        assert a is not b
        np.testing.assert_array_equal(a.latency_s, b.latency_s)


class TestLoadMonotonicity:
    @given(seed=st.integers(0, 2000))
    @settings(max_examples=10, deadline=None)
    def test_thinning_the_stream_never_hurts_survivors_single_type(self, seed):
        """Removing the tail of the stream leaves earlier latencies intact
        (FCFS is causal: later arrivals cannot affect earlier queries)."""
        model = make_toy_model()
        trace = random_trace(seed, 300)
        head = trace.head(150)
        pool = PoolConfiguration(("g4dn", "t3"), (1, 1))
        full = InferenceServingSimulator(model).simulate(trace, pool)
        short = InferenceServingSimulator(model).simulate(head, pool)
        np.testing.assert_allclose(
            full.latency_s[:150], short.latency_s, rtol=1e-12
        )


class TestInstanceCountMonotonicity:
    """On a homogeneous pool a query's service time does not depend on the
    instance, and an extra FCFS server never delays a start: every
    latency is non-increasing in the instance count, so the QoS rate at
    any target is non-decreasing (the premise of the bisected instance
    bounds)."""

    @given(
        seed=st.integers(0, 5000),
        law=st.sampled_from(sorted(TRACE_LAWS)),
        family=st.sampled_from(["g4dn", "t3"]),
        noise=st.sampled_from([0.0, 0.25]),
        target_ms=st.floats(2.0, 80.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_latency_non_increasing_in_count(
        self, seed, law, family, noise, target_ms
    ):
        model = make_toy_model(noise=noise, arrival_rate_qps=600.0)
        trace = TRACE_LAWS[law](seed, 200, rate=600.0)
        sim = InferenceServingSimulator(
            model,
            result_cache=SimulationResultCache(maxsize=0),
        )
        prev = None
        for count in range(1, 9):
            res = sim.simulate(trace, PoolConfiguration.homogeneous(family, count))
            if prev is not None:
                assert np.all(res.latency_s <= prev.latency_s), count
                assert res.qos_satisfaction_rate(
                    target_ms
                ) >= prev.qos_satisfaction_rate(target_ms)
            prev = res
