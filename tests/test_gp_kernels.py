"""Unit + property tests for the covariance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.gp.kernels import Matern52

ALL_KERNELS = [
    Matern52(length_scale=0.7, variance=1.3),
    Matern52(length_scale=0.5, variance=0.8, scale=np.array([4.0, 6.0])),
]


def kernel_id(kernel):
    return "Matern52" if kernel.scale is None else "Matern52-rounded"

points = hnp.arrays(
    np.float64,
    shape=st.tuples(st.integers(2, 8), st.integers(1, 3)),
    elements=st.floats(-3.0, 3.0, allow_nan=False),
)


class TestKernelBasics:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=kernel_id)
    def test_symmetry(self, kernel):
        X = np.random.default_rng(0).normal(size=(6, 2))
        K = kernel(X, X)
        np.testing.assert_allclose(K, K.T, atol=1e-12)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=kernel_id)
    def test_psd(self, kernel):
        X = np.random.default_rng(1).normal(size=(8, 2))
        K = kernel(X, X)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-8

    @pytest.mark.parametrize("kernel", [Matern52()], ids=lambda k: type(k).__name__)
    def test_stationary_diagonal_equals_variance(self, kernel):
        X = np.random.default_rng(2).normal(size=(5, 2))
        np.testing.assert_allclose(np.diag(kernel(X, X)), kernel.variance, rtol=1e-6)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=kernel_id)
    def test_theta_roundtrip(self, kernel):
        theta = kernel.get_theta()
        kernel.set_theta(theta + 0.3)
        np.testing.assert_allclose(kernel.get_theta(), theta + 0.3, rtol=1e-10)
        assert len(kernel.theta_bounds()) == kernel.n_params

    def test_1d_input_promoted(self):
        k = Matern52()
        K = k(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert K.shape == (2, 2)

    def test_3d_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            Matern52()(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_matern_decreases_with_distance(self):
        k = Matern52(length_scale=1.0)
        x = np.array([[0.0]])
        near, far = k(x, [[0.5]])[0, 0], k(x, [[2.0]])[0, 0]
        assert near > far

    def test_matern_known_value(self):
        k = Matern52(length_scale=1.0, variance=1.0)
        val = k([[0.0]], [[1.0]])[0, 0]
        sqrt5 = np.sqrt(5.0)
        assert val == pytest.approx((1.0 + sqrt5 + 5.0 / 3.0) * np.exp(-sqrt5))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            Matern52(length_scale=0.0)
        with pytest.raises(ValueError):
            Matern52(variance=-1.0)


class TestRounding:
    def test_constant_within_integer_cell(self):
        # Normalized inputs with scale 10: cell width 0.1.
        k = Matern52(length_scale=0.3, scale=10.0)
        ref = np.array([[0.55]])
        a = k(np.array([[0.21]]), ref)[0, 0]
        b = k(np.array([[0.24]]), ref)[0, 0]  # same integer cell (round->2)
        c = k(np.array([[0.31]]), ref)[0, 0]  # next cell (round->3)
        assert a == pytest.approx(b, abs=1e-12)
        assert a != pytest.approx(c, abs=1e-9)

    def test_round_input_maps_to_cell_centers(self):
        k = Matern52(scale=np.array([4.0, 8.0]))
        out = k.precompute_input(np.array([[0.25 + 0.01, 0.5 - 0.01]])).x
        np.testing.assert_allclose(out, [[0.25, 0.5]])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            Matern52(scale=0.0)

    @given(points)
    @settings(max_examples=25, deadline=None)
    def test_rounded_matrix_is_psd(self, X):
        k = Matern52(scale=3.0)
        K = k(X, X)
        eig = np.linalg.eigvalsh(K)
        assert eig.min() > -1e-8


@given(points)
@settings(max_examples=25, deadline=None)
def test_matern_psd_property(X):
    K = Matern52()(X, X)
    assert np.linalg.eigvalsh(K).min() > -1e-8


@given(points)
@settings(max_examples=25, deadline=None)
def test_kernel_values_bounded_by_variance(X):
    k = Matern52(variance=2.0)
    K = k(X, X)
    assert np.all(K <= 2.0 + 1e-9)
    assert np.all(K >= -1e-9)
