"""Incremental GP conditioning against from-scratch refits."""

import numpy as np
import pytest

from repro.gp.kernels import Matern52
from repro.gp.regression import GaussianProcessRegressor
from repro.simulator.pool import grid_vectors


def make_gp(kernel=None, **kwargs):
    kernel = kernel if kernel is not None else Matern52(0.4)
    kwargs.setdefault("noise", 1e-6)
    kwargs.setdefault("optimize_hyperparameters", False)
    return GaussianProcessRegressor(kernel, **kwargs)


def assert_same_posterior(incremental, scratch, X_query, tol=1e-10):
    m1, s1 = incremental.predict(X_query, return_std=True)
    m2, s2 = scratch.predict(X_query, return_std=True)
    np.testing.assert_allclose(m1, m2, rtol=tol, atol=tol)
    np.testing.assert_allclose(s1, s2, rtol=tol, atol=tol)


class TestAddObservation:
    def test_matches_full_refit_to_1e10(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 2))
        y = np.sin(X.sum(axis=1) * 3.0)
        extra_X = rng.uniform(size=(5, 2))
        extra_y = np.cos(extra_X.sum(axis=1))
        grid = rng.uniform(size=(40, 2))

        inc = make_gp().fit(X, y)
        for x_new, y_new in zip(extra_X, extra_y):
            inc.add_observation(x_new[None, :], float(y_new))

        scratch = make_gp().fit(
            np.vstack([X, extra_X]), np.concatenate([y, extra_y])
        )
        assert inc.n_train == 17
        assert_same_posterior(inc, scratch, grid)
        np.testing.assert_allclose(
            inc.log_marginal_likelihood(),
            scratch.log_marginal_likelihood(),
            atol=1e-10,
        )

    def test_with_normalized_targets(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(8, 1))
        y = 10.0 + rng.normal(size=8)
        inc = make_gp().fit(X, y)
        inc.add_observation([[0.5]], 14.0)
        scratch = make_gp().fit(
            np.vstack([X, [[0.5]]]), np.append(y, 14.0)
        )
        assert_same_posterior(inc, scratch, rng.uniform(size=(20, 1)))

    def test_duplicate_input_under_rounding_falls_back_safely(self):
        # An exactly duplicated row makes the bordered factor lose positive
        # definiteness; the update must fall back to the jittered path.
        kernel = Matern52(0.3, scale=10.0)
        gp = make_gp(kernel).fit(np.array([[0.5], [0.7]]), np.array([1.0, 2.0]))
        gp.add_observation([[0.5]], 1.0)
        mean = gp.predict([[0.5]])
        assert np.isfinite(mean[0])

    def test_composite_kernel(self):
        # Matern under the Eq. 3 rounding.  Distinct lattice cells keep the
        # bordered factor positive definite (no jitter fallback).
        scale = np.array([5.0, 7.0])
        rng = np.random.default_rng(2)
        cells = rng.permutation(grid_vectors((5, 7)))[:11] / scale
        y = rng.normal(size=10)
        inc = make_gp(Matern52(0.4, scale=scale)).fit(cells[:10], y)
        inc.add_observation(cells[10:], 0.3)
        kernel2 = Matern52(0.4, scale=scale)
        scratch = make_gp(kernel2).fit(inc.X_train, inc.y_train)
        assert_same_posterior(inc, scratch, rng.uniform(size=(25, 2)))

    def test_requires_fit_first(self):
        gp = make_gp()
        with pytest.raises(RuntimeError):
            gp.add_observation([[0.0]], 1.0)

    def test_rejects_wrong_dimension(self):
        gp = make_gp().fit(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            gp.add_observation([[0.0, 0.0, 0.0]], 1.0)

    def test_keeps_hyperparameters_fixed(self):
        gp = make_gp(Matern52(0.37, 1.21)).fit(
            np.random.default_rng(3).uniform(size=(6, 1)), np.arange(6.0)
        )
        theta_before = gp.kernel.get_theta().copy()
        gp.add_observation([[0.9]], 3.0)
        np.testing.assert_array_equal(gp.kernel.get_theta(), theta_before)


class TestPreparedPredict:
    def test_prepared_input_predict_matches_array_predict(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(10, 3))
        y = rng.normal(size=10)
        kernel = Matern52(0.3, scale=np.array([5.0, 6.0, 8.0]))
        gp = make_gp(kernel).fit(X, y)
        grid = rng.uniform(size=(30, 3))
        grid_pi = kernel.precompute_input(grid)
        m1, s1 = gp.predict(grid, return_std=True)
        m2, s2 = gp.predict(grid_pi, return_std=True)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(s1, s2)
