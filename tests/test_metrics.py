"""Unit tests for SimulationResult figures of merit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import RibbonObjective
from repro.simulator.metrics import SimulationResult


def make_result(latency_ms, waits_ms=None):
    lat = np.asarray(latency_ms, dtype=float) / 1000.0
    wait = (
        np.asarray(waits_ms, dtype=float) / 1000.0
        if waits_ms is not None
        else np.zeros_like(lat)
    )
    n = len(lat)
    arrival = np.arange(n, dtype=float)
    return SimulationResult(
        latency_s=lat,
        start_s=arrival + wait,
        arrival_s=arrival,
        queue_len_at_arrival=np.resize([0, 1, 2, 1], n),
    )


class TestQoS:
    def test_satisfaction_rate(self):
        res = make_result([5, 10, 15, 25])
        assert res.qos_satisfaction_rate(20.0) == pytest.approx(0.75)

    def test_boundary_inclusive(self):
        res = make_result([20.0])
        assert res.qos_satisfaction_rate(20.0) == 1.0

    def test_meets_qos_threshold(self, toy_space):
        # The threshold lives in the objective; the result supplies the rate.
        rate = make_result([5] * 99 + [100]).qos_satisfaction_rate(20.0)
        assert RibbonObjective(toy_space, qos_rate_target=0.99).meets_qos(rate)
        assert not RibbonObjective(toy_space, qos_rate_target=0.995).meets_qos(rate)

    def test_invalid_inputs(self):
        res = make_result([5.0])
        with pytest.raises(ValueError):
            res.qos_satisfaction_rate(0.0)
        with pytest.raises(ValueError):
            res.qos_violation_count(-1.0)


@st.composite
def latency_arrays(draw):
    """1-5 000 latencies at a scale from 1e-3 to 1e3: continuous draws,
    heavy ties on a dyadic grid (zeros included), or all equal."""
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["continuous", "ties", "equal"]))
    if kind == "continuous":
        return rng.lognormal(0.0, 1.0, size=n) * scale
    if kind == "ties":
        return rng.integers(0, 8, size=n) * 0.125 * scale
    return np.full(n, rng.random() * scale)


class TestLatencyStats:
    def test_percentile(self):
        res = make_result(list(range(1, 101)))
        assert res.latency_percentile_ms(50.0) == pytest.approx(50.5)
        assert res.p99_ms == pytest.approx(99.01, rel=0.01)

    @given(
        latency_s=latency_arrays(),
        q=st.one_of(st.sampled_from([0.0, 99.0, 100.0, 50, 99]), st.floats(0.0, 100.0)),
    )
    @settings(max_examples=400, deadline=None)
    def test_percentile_equals_numpy_bit_for_bit(self, latency_s, q):
        """The scalar read-off is ``np.percentile``'s linear method, every
        bit of it, on the unsorted latencies."""
        zeros = np.zeros_like(latency_s)
        res = SimulationResult(latency_s=latency_s, start_s=zeros, arrival_s=zeros)
        expected = np.float64(np.percentile(latency_s, q) * 1000.0)
        assert np.float64(res.latency_percentile_ms(q)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("q", [-1e-9, -1.0, 100.5, 1e9, float("nan"), float("-inf")])
    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_percentile_outside_0_100_raises(self, q, n):
        res = make_result(list(range(n)))
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            res.latency_percentile_ms(q)


class TestStructure:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            SimulationResult(
                latency_s=np.array([0.1, 0.2]),
                start_s=np.array([0.0]),
                arrival_s=np.array([0.0, 0.1]),
            )

    def test_negative_latency_rejected(self):
        for latency_ms in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="non-negative"):
                make_result([5.0, latency_ms])

    def test_queue_stats(self):
        res = make_result([10, 20, 30, 40])
        assert res.mean_queue_length == pytest.approx(1.0)

    def test_engine_counted_mean_leaves_the_column_underived(self):
        """One server, service 5, arrivals 1 apart: queues 0, 0, 1, 2."""
        arrival = np.arange(4.0)
        start = arrival * 5.0
        res = SimulationResult(
            latency_s=(start - arrival) + 5.0,
            start_s=start,
            arrival_s=arrival,
            mean_queue_length=0.75,
        )
        assert res.mean_queue_length == 0.75
        assert "queue_len_at_arrival" not in res._derived
        np.testing.assert_array_equal(res.queue_len_at_arrival, [0, 0, 1, 2])


class TestZeroQueryWindow:
    """The documented vacuous conventions for an empty (idle) window.

    These are reporting conventions only: an empty window reads as
    QoS-perfect and latency-free, which is why the evaluator boundary
    rejects empty traces (tests/test_evaluator.py::TestEmptyTraceGuard).
    """

    def test_qos_rate_is_vacuously_one(self):
        res = make_result([])
        assert len(res) == 0
        assert res.qos_satisfaction_rate(20.0) == 1.0

    def test_percentiles_and_means_are_zero(self):
        res = make_result([])
        assert res.latency_percentile_ms(99.0) == 0.0
        assert res.p99_ms == 0.0
        assert res.mean_queue_length == 0.0

    def test_queue_and_throughput_degenerate(self):
        res = make_result([])
        assert res.queue_len_at_arrival.size == 0
        assert res.mean_queue_length == 0.0

    def test_target_validation_still_applies(self):
        with pytest.raises(ValueError, match="positive"):
            make_result([]).qos_satisfaction_rate(0.0)
