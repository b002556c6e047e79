"""Unit + property tests for acquisition functions."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp.acquisition import (
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)

floats = st.floats(-5.0, 5.0, allow_nan=False)
pos_floats = st.floats(0.0, 5.0, allow_nan=False)


class TestExpectedImprovement:
    def test_zero_std_reduces_to_plain_improvement(self):
        ei = expected_improvement(np.array([1.0, -1.0]), np.array([0.0, 0.0]), 0.0)
        np.testing.assert_allclose(ei, [1.0, 0.0])

    def test_known_value_at_zero_improvement(self):
        # mean == best, sigma = 1: EI = phi(0) = 1/sqrt(2 pi).
        ei = expected_improvement(np.array([0.0]), np.array([1.0]), 0.0)
        assert ei[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_monotonic_in_mean(self):
        ei = expected_improvement(np.array([0.0, 0.5, 1.0]), np.ones(3), 0.0)
        assert ei[0] < ei[1] < ei[2]

    def test_monotonic_in_std_when_below_best(self):
        ei = expected_improvement(np.full(3, -1.0), np.array([0.1, 1.0, 3.0]), 0.0)
        assert ei[0] < ei[1] < ei[2]

    def test_xi_margin_reduces_ei(self):
        base = expected_improvement(np.array([1.0]), np.array([0.5]), 0.0, xi=0.0)
        shifted = expected_improvement(np.array([1.0]), np.array([0.5]), 0.0, xi=0.5)
        assert shifted[0] < base[0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(2), np.zeros(3), 0.0)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(1), np.array([-1.0]), 0.0)

    @given(
        mean=st.lists(floats, min_size=1, max_size=10),
        best=floats,
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_everywhere(self, mean, best):
        mean = np.asarray(mean)
        std = np.abs(mean) * 0.3 + 0.1
        ei = expected_improvement(mean, std, best)
        assert np.all(ei >= 0.0)

    @given(mean=floats, std=st.floats(0.01, 5.0), best=floats)
    @settings(max_examples=50, deadline=None)
    def test_ei_at_least_plain_improvement(self, mean, std, best):
        # EI >= max(mu - f*, 0) for any sigma (Jensen).
        ei = expected_improvement(np.array([mean]), np.array([std]), best)
        assert ei[0] >= max(mean - best, 0.0) - 1e-9


class TestProbabilityOfImprovement:
    def test_half_at_mean_equal_best(self):
        pi = probability_of_improvement(np.array([0.0]), np.array([1.0]), 0.0)
        assert pi[0] == pytest.approx(0.5)

    def test_zero_std_step_function(self):
        pi = probability_of_improvement(
            np.array([1.0, -1.0]), np.array([0.0, 0.0]), 0.0
        )
        np.testing.assert_allclose(pi, [1.0, 0.0])

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        pi = probability_of_improvement(
            rng.normal(size=50), np.abs(rng.normal(size=50)) + 0.01, 0.3
        )
        assert np.all(pi >= 0.0) and np.all(pi <= 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            probability_of_improvement(np.zeros(2), np.zeros(3), 0.0)

    def test_ndtr_is_norm_cdf_bit_for_bit(self):
        # PI returns ndtr(z) instead of norm.cdf(z); the standard normal
        # cdf is ndtr, so the swap must not move a single bit.
        from scipy.special import ndtr
        from scipy.stats import norm

        z = np.concatenate(
            [
                np.linspace(-40.0, 40.0, 4001),
                np.geomspace(1e-300, 1e3, 500) * np.array([[-1.0], [1.0]]),
                [0.0, -0.0, np.inf, -np.inf, np.nan],
            ],
            axis=None,
        )
        np.testing.assert_array_equal(
            ndtr(z).view(np.int64), norm.cdf(z).view(np.int64)
        )


def test_import_leaves_scipy_stats_unloaded():
    """``scipy.stats`` costs a large share of a cold start; nothing on
    the package or CLI import path may pull it in."""
    code = (
        "import sys, repro, repro.cli; "
        "sys.exit('scipy.stats' in sys.modules)"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()


class TestUCB:
    def test_formula(self):
        out = upper_confidence_bound(np.array([1.0]), np.array([0.5]), kappa=2.0)
        assert out[0] == pytest.approx(2.0)

    def test_kappa_zero_is_mean(self):
        mean = np.array([0.3, -0.7])
        np.testing.assert_allclose(
            upper_confidence_bound(mean, np.ones(2), kappa=0.0), mean
        )

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError):
            upper_confidence_bound(np.zeros(1), np.ones(1), kappa=-1.0)
