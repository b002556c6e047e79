"""Unit + property tests for the workload generation substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.zoo import get_model
from repro.workload.arrival import (
    MarkovModulatedPoissonProcess,
    PoissonArrivalProcess,
)
from repro.workload.batch import (
    FixedBatch,
    GaussianBatch,
    HeavyTailLogNormalBatch,
)
from repro.workload.trace import QueryTrace, TraceGenerator, trace_for_model


class TestPoissonArrivals:
    def test_rate_property(self):
        assert PoissonArrivalProcess(100.0).rate_qps == 100.0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(0.0)

    def test_sorted_output(self):
        rng = np.random.default_rng(0)
        t = PoissonArrivalProcess(50.0).sample(1000, rng)
        assert np.all(np.diff(t) >= 0)

    def test_empirical_rate_close_to_nominal(self):
        rng = np.random.default_rng(1)
        t = PoissonArrivalProcess(200.0).sample(20_000, rng)
        empirical = len(t) / t[-1]
        assert empirical == pytest.approx(200.0, rel=0.05)

    def test_scaled(self):
        p = PoissonArrivalProcess(100.0).scaled(1.5)
        assert p.rate_qps == pytest.approx(150.0)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(100.0).scaled(0.0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivalProcess(100.0).sample(-1, np.random.default_rng(0))


class TestMMPP:
    def test_long_run_rate_is_time_weighted_mixture(self):
        p = MarkovModulatedPoissonProcess(100.0, 300.0, mean_base_s=3.0, mean_burst_s=1.0)
        assert p.rate_qps == pytest.approx((100 * 3 + 300 * 1) / 4)

    def test_sorted_output(self):
        p = MarkovModulatedPoissonProcess(50.0, 200.0)
        t = p.sample(2000, np.random.default_rng(2))
        assert np.all(np.diff(t) >= 0)

    def test_burst_must_exceed_base(self):
        with pytest.raises(ValueError):
            MarkovModulatedPoissonProcess(100.0, 50.0)

    def test_scaled_scales_both_rates(self):
        p = MarkovModulatedPoissonProcess(100.0, 200.0).scaled(2.0)
        assert p.rate_qps == pytest.approx(
            MarkovModulatedPoissonProcess(200.0, 400.0).rate_qps
        )


class TestBatchDistributions:
    def test_lognormal_sample_bounds(self):
        d = HeavyTailLogNormalBatch(30.0, 0.8, 256)
        b = d.sample(5000, np.random.default_rng(0))
        assert b.min() >= 1
        assert b.max() <= 256
        assert b.dtype == np.int64

    def test_lognormal_mean_formula(self):
        d = HeavyTailLogNormalBatch(30.0, 0.8, 256)
        assert d.mean_batch == pytest.approx(30.0 * np.exp(0.32))

    def test_lognormal_percentile_median(self):
        d = HeavyTailLogNormalBatch(30.0, 0.8, 256)
        assert d.percentile(50.0) == pytest.approx(30.0)

    def test_lognormal_rejects_bad_params(self):
        with pytest.raises(ValueError):
            HeavyTailLogNormalBatch(0.0, 0.8, 256)
        with pytest.raises(ValueError):
            HeavyTailLogNormalBatch(30.0, 0.0, 256)
        with pytest.raises(ValueError):
            HeavyTailLogNormalBatch(30.0, 0.8, 0)

    def test_gaussian_clipping(self):
        d = GaussianBatch(10.0, 50.0, 64)
        b = d.sample(5000, np.random.default_rng(1))
        assert b.min() >= 1
        assert b.max() <= 64

    def test_gaussian_rejects_bad_params(self):
        with pytest.raises(ValueError):
            GaussianBatch(0.0, 1.0, 64)
        with pytest.raises(ValueError):
            GaussianBatch(10.0, -1.0, 64)

    def test_fixed_batch_constant(self):
        d = FixedBatch(32)
        b = d.sample(100, np.random.default_rng(0))
        assert np.all(b == 32)
        assert d.mean_batch == 32.0

    def test_fixed_batch_above_cap_rejected(self):
        with pytest.raises(ValueError):
            FixedBatch(100, max_batch=64)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_sample_count_matches_request(self, n):
        d = HeavyTailLogNormalBatch(16.0, 0.8, 128)
        assert len(d.sample(n, np.random.default_rng(0))) == n


class TestQueryTrace:
    def test_validation_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            QueryTrace(np.array([1.0, 0.5]), np.array([1, 1]), 10.0)

    def test_validation_shapes(self):
        with pytest.raises(ValueError, match="mismatch"):
            QueryTrace(np.array([0.1, 0.2]), np.array([1]), 10.0)

    def test_validation_batch_min(self):
        with pytest.raises(ValueError, match=">= 1"):
            QueryTrace(np.array([0.1]), np.array([0]), 10.0)

    def test_duration_and_rate(self):
        t = QueryTrace(np.array([0.0, 1.0, 2.0]), np.array([1, 2, 3]), 1.5)
        assert t.duration_s == 2.0
        assert len(t) / t.duration_s == pytest.approx(t.rate_qps)

    def test_head(self):
        t = QueryTrace(np.array([0.0, 1.0, 2.0]), np.array([1, 2, 3]), 1.5)
        h = t.head(2)
        assert len(h) == 2
        assert h.batch_sizes.tolist() == [1, 2]

    def test_roundtrip_serialization(self):
        t = QueryTrace(np.array([0.5, 1.0]), np.array([4, 8]), 2.0, seed=42)
        t2 = QueryTrace.from_dict(t.to_dict())
        np.testing.assert_allclose(t2.arrival_s, t.arrival_s)
        np.testing.assert_array_equal(t2.batch_sizes, t.batch_sizes)
        assert t2.seed == 42


class TestTraceGenerator:
    def test_deterministic_given_seed(self):
        gen = TraceGenerator(
            PoissonArrivalProcess(100.0),
            HeavyTailLogNormalBatch(30.0, 0.8, 256),
            seed=5,
        )
        a, b = gen.generate(200), gen.generate(200)
        np.testing.assert_allclose(a.arrival_s, b.arrival_s)
        np.testing.assert_array_equal(a.batch_sizes, b.batch_sizes)

    def test_seed_override_changes_trace(self):
        gen = TraceGenerator(
            PoissonArrivalProcess(100.0),
            HeavyTailLogNormalBatch(30.0, 0.8, 256),
            seed=5,
        )
        a, b = gen.generate(200), gen.generate(200, seed=6)
        assert not np.array_equal(a.batch_sizes, b.batch_sizes)

    def test_scaled_raises_rate(self):
        gen = TraceGenerator(
            PoissonArrivalProcess(100.0),
            HeavyTailLogNormalBatch(30.0, 0.8, 256),
            seed=5,
        ).scaled(1.5)
        t = gen.generate(5000)
        assert t.rate_qps == pytest.approx(150.0)
        assert len(t) / t.duration_s == pytest.approx(150.0, rel=0.1)


class TestTraceForModel:
    def test_default_follows_model_settings(self):
        m = get_model("MT-WND")
        t = trace_for_model(m, n_queries=500, seed=0)
        assert len(t) == 500
        assert t.rate_qps == m.arrival_rate_qps
        assert t.batch_sizes.max() <= m.max_batch

    def test_gaussian_variant_mean_matches_lognormal(self):
        m = get_model("MT-WND")
        t_ln = trace_for_model(m, n_queries=20_000, seed=0)
        t_g = trace_for_model(m, n_queries=20_000, seed=0, gaussian=True)
        assert np.mean(t_g.batch_sizes) == pytest.approx(
            np.mean(t_ln.batch_sizes), rel=0.15
        )

    def test_load_factor(self):
        m = get_model("MT-WND")
        t = trace_for_model(m, n_queries=500, seed=0, load_factor=1.5)
        assert t.rate_qps == pytest.approx(m.arrival_rate_qps * 1.5)

    def test_rejects_bad_load_factor(self):
        with pytest.raises(ValueError):
            trace_for_model(get_model("MT-WND"), load_factor=0.0)
