"""Cross-validation: the fast engine against the event-heap reference.

The fast engine relies on a reduction argument (service time independent of
dispatch instant => one pass in arrival order is exact).  These property
tests assert both engines produce identical per-query latencies on random
workloads and pools, including with service-time noise.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PoolSpec, Scenario, ScenarioRunner, WorkloadSpec
from repro.models.base import LatencyProfile
from repro.simulator.engine import (
    DispatchCounters,
    InferenceServingSimulator,
    global_dispatch_counters,
)
from repro.simulator.events import EventHeapSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.workload.trace import QueryTrace
from tests.conftest import (
    SUBSTRATES,
    dispatch_delta,
    make_tied_trace,
    make_toy_model,
)


def fast_sim(model, **kwargs) -> InferenceServingSimulator:
    """A fast-engine simulator with the whole-result memo disabled.

    Equivalence tests run several same-(model, trace, pool) simulations
    and compare them; under the default shared memo the later runs would
    be cache hits of the first, making the comparisons vacuous.
    """
    return InferenceServingSimulator(
        model, result_cache=SimulationResultCache(maxsize=0), **kwargs
    )


def random_trace(seed: int, n: int, rate: float = 300.0) -> QueryTrace:
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n))
    batches = np.clip(
        np.rint(rng.lognormal(np.log(30.0), 0.8, size=n)), 1, 256
    ).astype(np.int64)
    return QueryTrace(arrivals, batches, rate_qps=rate, seed=seed)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=300),
    g=st.integers(min_value=0, max_value=3),
    t=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_engines_agree_on_random_workloads(seed, n, g, t):
    if g + t == 0:
        g = 1
    model = make_toy_model()
    trace = random_trace(seed, n)
    pool = PoolConfiguration(("g4dn", "t3"), (g, t))
    fast = fast_sim(model).simulate(trace, pool)
    ref = EventHeapSimulator(model).simulate(trace, pool)
    np.testing.assert_allclose(fast.latency_s, ref.latency_s, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(fast.start_s, ref.start_s, rtol=1e-12, atol=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_engines_agree_with_noise(seed):
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.25})
    trace = random_trace(seed, 200)
    pool = PoolConfiguration(("g4dn", "t3"), (2, 3))
    fast = fast_sim(model).simulate(trace, pool)
    ref = EventHeapSimulator(model).simulate(trace, pool)
    np.testing.assert_allclose(fast.latency_s, ref.latency_s, rtol=1e-12, atol=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_engines_agree_on_queue_lengths(seed):
    model = make_toy_model()
    trace = random_trace(seed, 250)
    pool = PoolConfiguration(("g4dn", "t3"), (1, 1))  # overloaded -> queueing
    fast = fast_sim(model).simulate(trace, pool)
    ref = EventHeapSimulator(model).simulate(trace, pool)
    np.testing.assert_array_equal(fast.queue_len_at_arrival, ref.queue_len_at_arrival)


def test_three_type_pool_equivalence():
    model = make_toy_model()
    trace = random_trace(123, 400)
    pool = PoolConfiguration(("g4dn", "c5", "t3"), (1, 2, 2))
    fast = fast_sim(model).simulate(trace, pool)
    ref = EventHeapSimulator(model).simulate(trace, pool)
    np.testing.assert_allclose(fast.latency_s, ref.latency_s, rtol=1e-12, atol=1e-12)


# -- family loop: bit-identical to the reference on adversarial pools ---------


def assert_dispatch_modes_match_reference(model, trace, pool):
    """The family loop on both substrates must equal the event-heap
    reference bit-for-bit on every result array.  On noisy service rows
    equal starts and equal latencies pin the serving family, so the
    type-order and earliest-free tie rules are checked too; the reference
    counts its queue column itself, and the compiled loop its queue
    total."""
    ref = EventHeapSimulator(model).simulate(trace, pool)
    runs = {}
    for substrate in SUBSTRATES:
        with substrate():
            runs[substrate.__name__] = fast_sim(model).simulate(trace, pool)
    for mode, res in runs.items():
        for field in ("latency_s", "start_s", "queue_len_at_arrival"):
            np.testing.assert_array_equal(
                getattr(res, field), getattr(ref, field), err_msg=f"{mode}: {field}"
            )
        assert res.queue_len_at_arrival.dtype == np.int64, mode
        for figure in ("p99_ms", "mean_queue_length"):
            assert getattr(res, figure) == getattr(ref, figure), f"{mode}: {figure}"


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=400),
    rate=st.floats(5.0, 3000.0),
)
@settings(max_examples=15, deadline=None)
def test_heap_dispatch_single_instance(seed, n, rate):
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2})
    trace = random_trace(seed, n, rate)
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration.homogeneous("g4dn", 1)
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    g=st.integers(min_value=8, max_value=16),
    c=st.integers(min_value=8, max_value=12),
    t=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=15, deadline=None)
def test_heap_dispatch_large_pools(seed, g, c, t):
    """30+-instance pools: deep per-family heaps of free times."""
    model = make_toy_model(noise={"g4dn": 0.05, "c5": 0.1, "t3": 0.2})
    trace = random_trace(seed, 300)
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration(("g4dn", "c5", "t3"), (g, c, t))
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_heap_dispatch_zero_noise_ties(seed):
    """Zero-noise families produce massive free_at ties — the tie-break is
    part of the dispatch contract and must match in both paths."""
    model = make_toy_model(noise=0.0)
    trace = random_trace(seed, 250)
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration(("g4dn", "c5", "t3"), (4, 4, 4))
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_heap_dispatch_heavy_saturation(seed):
    """Far more offered load than capacity: queues thousands deep."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / 2000.0, size=800))
    batches = np.clip(
        np.rint(rng.lognormal(np.log(40.0), 0.8, size=800)), 1, 256
    ).astype(np.int64)
    trace = QueryTrace(arrivals, batches, rate_qps=2000.0, seed=seed)
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.25})
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration(("g4dn", "t3"), (2, 1))
    )


@pytest.mark.parametrize(
    "shape",
    [
        "idle",
        "arrival_ties",
        "zero_service",
        "equal_service",
        "single_query",
        "bursty",
        "saturated",
        "diurnal",
    ],
)
def test_trace_shapes_match_reference(shape):
    """Adversarial trace shapes on single-instance, homogeneous and mixed
    pools, with zero-count families between non-zero ones: zero-noise
    services keep finish clocks tied wherever the shape allows, so every
    tie-break of the dispatch rule is exercised."""
    model = make_toy_model()
    trace = random_trace(3, 150, 500.0)
    if shape == "idle":  # near-zero load: every busy period is one query
        trace = random_trace(5, 200, 2.0)
    elif shape == "arrival_ties":  # bursts of four share each timestamp
        arrivals = np.repeat(np.arange(30, dtype=float) * 0.004, 4)
        trace = QueryTrace(arrivals, np.full(120, 30), rate_qps=1000.0, seed=11)
    elif shape == "zero_service":  # every t3 finish ties its own start
        profiles = {**model.profiles, "t3": LatencyProfile(0.0, 0.0)}
        model = dataclasses.replace(model, profiles=profiles)
    elif shape == "equal_service":  # finish clocks tie across families
        profiles = {f: LatencyProfile(1.0, 0.1) for f in model.profiles}
        model = dataclasses.replace(model, profiles=profiles)
        trace = random_trace(9, 200, 800.0)
    elif shape == "single_query":
        trace = random_trace(5, 1, 100.0)
    elif shape == "bursty":  # clumps of exact ties split by long silences
        model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2, "c5": 0.15})
        rng = np.random.default_rng(9)
        gaps = rng.exponential(1.0 / 600.0, size=300)
        gaps[rng.random(300) < 0.4] = 0.0
        gaps[rng.random(300) < 0.08] *= 50.0
        trace = QueryTrace(np.cumsum(gaps), np.full(300, 30), rate_qps=600.0, seed=9)
    elif shape == "saturated":  # far past capacity: queues thousands deep
        trace = random_trace(4, 600, 20_000.0)
    elif shape == "diurnal":  # sinusoidal rate: idle troughs, saturated peaks
        # Thinned Poisson arrivals at 600 (1 + sin(4 pi t)) qps for ~2 s:
        # the mixed pools below queue tens of queries at each peak and
        # serve most trough queries without waiting.
        rng = np.random.default_rng(12)
        arrivals = np.cumsum(rng.exponential(1.0 / 1200.0, size=2400))
        keep = rng.random(2400) < 0.5 * (1.0 + np.sin(4.0 * np.pi * arrivals))
        arrivals = arrivals[keep]
        trace = QueryTrace(
            arrivals, np.full(arrivals.size, 30), rate_qps=600.0, seed=12
        )
    for pool in (
        PoolConfiguration.homogeneous("g4dn", 1),
        PoolConfiguration.homogeneous("t3", 6),
        PoolConfiguration.homogeneous("g4dn", 32),
        PoolConfiguration(("g4dn", "t3"), (2, 2)),
        PoolConfiguration(("g4dn", "t3", "c5"), (3, 2, 3)),
        PoolConfiguration(("g4dn", "t3", "c5"), (2, 0, 3)),
        PoolConfiguration(("g4dn", "t3", "c5"), (0, 4, 0)),
    ):
        assert_dispatch_modes_match_reference(model, trace, pool)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    g=st.integers(min_value=0, max_value=4),
    t=st.integers(min_value=0, max_value=4),
    noise=st.sampled_from([0.0, 0.2]),
)
@settings(max_examples=25, deadline=None)
def test_tied_arrivals_match_reference(seed, g, t, noise):
    """Tied arrivals, and zero-noise ties between arrivals and finishes, are
    where the queue derivation's ``searchsorted`` side matters: a query
    starting exactly at a later arrival has left the queue by then."""
    if g + t == 0:
        t = 1
    model = make_toy_model(noise=noise, arrival_rate_qps=600.0)
    trace = make_tied_trace(seed, 250, rate=600.0)
    assert_dispatch_modes_match_reference(
        model, trace, PoolConfiguration(("g4dn", "t3"), (g, t))
    )


def test_exact_start_arrival_ties_leave_the_queue():
    """Hand-built ties: each query of a clump starts exactly when the
    previous one finishes, at the next clump's arrival instant."""
    model = make_toy_model()
    service = float(model.service_time_s("g4dn", np.array([30]))[0])
    arrivals = np.array([0.0, 0.0, service, service, 2 * service])
    trace = QueryTrace(arrivals, np.full(5, 30), rate_qps=1.0, seed=1)
    pool = PoolConfiguration.homogeneous("g4dn", 1)
    assert_dispatch_modes_match_reference(model, trace, pool)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_queue_column_is_derived_on_first_read(seed):
    """The family path derives the queue column only when it is read: a
    QoS read leaves it underived, the memo charged it up front, and the
    derived column is read-only and equals the reference's counted one."""
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2})
    trace = make_tied_trace(seed, 200)
    for counts in ((1, 0), (2, 3), (0, 6)):
        pool = PoolConfiguration(("g4dn", "t3"), counts)
        memo = SimulationResultCache(maxsize=8)
        res = InferenceServingSimulator(model, result_cache=memo).simulate(
            trace, pool
        )
        res.qos_satisfaction_rate(model.qos_target_ms)
        assert "queue_len_at_arrival" not in res._derived
        charged = memo.total_bytes
        queue = res.queue_len_at_arrival
        assert not queue.flags.writeable
        assert memo.total_bytes == charged
        ref = EventHeapSimulator(model).simulate(trace, pool)
        np.testing.assert_array_equal(queue, ref.queue_len_at_arrival)


def test_default_dispatch_equals_forced_paths(toy_model, toy_trace):
    pool = PoolConfiguration(("g4dn", "t3"), (2, 3))
    ref = EventHeapSimulator(toy_model).simulate(toy_trace, pool)
    for substrate in SUBSTRATES:
        with substrate():
            default = fast_sim(toy_model).simulate(toy_trace, pool)
            forced = fast_sim(toy_model, dispatch="family").simulate(
                toy_trace, pool
            )
            for res in (default, forced):
                for field in ("latency_s", "start_s", "queue_len_at_arrival"):
                    np.testing.assert_array_equal(
                        getattr(res, field), getattr(ref, field),
                        err_msg=f"{substrate.__name__}: {field}",
                    )


def test_invalid_dispatch_mode_rejected(toy_model):
    assert InferenceServingSimulator.DISPATCH_POLICIES == ("family", "heap")
    for mode in ("vector", "auto", "linear"):
        with pytest.raises(ValueError) as err:
            InferenceServingSimulator(toy_model, dispatch=mode)
        for policy in ("family", "heap"):
            assert repr(policy) in str(err.value)


def test_counts_skip_memo_hits_and_reach_the_runner(toy_model, toy_trace):
    """Only real dispatches count (a memo hit does not), and a runner's
    stats report the process-wide counts, bound estimation included."""
    sim = InferenceServingSimulator(
        toy_model, result_cache=SimulationResultCache(maxsize=8)
    )
    with dispatch_delta() as counts:
        for pool in (
            PoolConfiguration.homogeneous("g4dn", 1),
            PoolConfiguration(("g4dn", "t3"), (1, 2)),
        ):
            sim.simulate(toy_trace, pool)
            sim.simulate(toy_trace, pool)  # memo hit
    assert counts == dict(dict.fromkeys(DispatchCounters.PATHS, 0), linear=2)

    runner = ScenarioRunner(
        Scenario(
            model="MT-WND",
            workload=WorkloadSpec(n_queries=500, seed=3, load_factor=1.5),
            pool=PoolSpec(families=("g4dn", "c5"), bounds=(3, 4)),
        ),
        simulation_cache=SimulationResultCache(maxsize=0),
    )
    with dispatch_delta() as counts:
        runner.homogeneous_optimum(seed=0)
    stats = runner.cache_stats()
    assert set(stats["dispatch"]) == set(DispatchCounters.PATHS)
    assert counts["linear"] > 0
    assert counts["heap"] == 0
    assert stats["dispatch"] == global_dispatch_counters().snapshot()
