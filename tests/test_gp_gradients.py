"""Analytic kernel/likelihood gradients against finite differences."""

import math

import numpy as np
import pytest

from repro.gp.kernels import _SQRT5, Matern52
from repro.gp.regression import GaussianProcessRegressor


def fd_gradient(kernel, X, eps=1e-6):
    """Central finite differences of K w.r.t. the log-space theta vector."""
    theta0 = kernel.get_theta().copy()
    grads = []
    for j in range(len(theta0)):
        up, down = theta0.copy(), theta0.copy()
        up[j] += eps
        down[j] -= eps
        kernel.set_theta(up)
        K_up = kernel(X, X)
        kernel.set_theta(down)
        K_down = kernel(X, X)
        grads.append((K_up - K_down) / (2.0 * eps))
    kernel.set_theta(theta0)
    return grads


def textbook_lml(K, y, noise):
    """log p(y | X) by Rasmussen & Williams, Alg. 2.1, for ``K + noise I``."""
    n = y.size
    L = np.linalg.cholesky(K + noise * np.eye(n))
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
    return -0.5 * y @ alpha - np.log(np.diag(L)).sum() - 0.5 * n * math.log(2 * math.pi)


def libm_eval_state(kernel, r0):
    """``eval_state``'s formula entry by entry with libm's ``exp``: the
    fit-side matrix ``eval_and_gradient_state`` must give bit for bit."""
    out = np.empty(r0.shape)
    for idx, r0_ij in np.ndenumerate(r0):
        r = r0_ij / kernel.length_scale
        s = _SQRT5 * r
        out[idx] = kernel.variance * (1.0 + s + 5.0 * (r * r) / 3.0) * math.exp(-s)
    return out


def all_kernels():
    return [
        Matern52(length_scale=0.4, variance=1.3),
        Matern52(length_scale=2.5, variance=0.2),
        Matern52(0.3, 1.0, scale=np.array([5.0, 7.0])),
    ]


def kernel_id(kernel):
    return repr(kernel)[:40] if kernel.scale is None else "Matern52-rounded"


@pytest.mark.parametrize("kernel", all_kernels(), ids=kernel_id)
def test_gradient_state_matches_finite_differences(kernel):
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(12, 2))
    state = kernel.cross_state(kernel.precompute_input(X), kernel.precompute_input(X))
    _, analytic = kernel.eval_and_gradient_state(state, {})
    numeric = fd_gradient(kernel, X)
    assert len(analytic) == kernel.n_params
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("kernel", all_kernels(), ids=kernel_id)
def test_prepared_pipeline_matches_direct_call(kernel):
    """__call__ and eval_state agree bit for bit; the fused fit-side path
    is the same formula on libm's exp, bit for bit, so within 2 ulps of
    NumPy's; and the log-variance gradient is K itself."""
    rng = np.random.default_rng(4)
    X1 = rng.uniform(size=(9, 2))
    X2 = rng.uniform(size=(5, 2))
    direct = kernel(X1, X2)
    state = kernel.cross_state(
        kernel.precompute_input(X1), kernel.precompute_input(X2)
    )
    np.testing.assert_array_equal(direct, kernel.eval_state(state))
    K, grads = kernel.eval_and_gradient_state(state, {})
    np.testing.assert_array_equal(libm_eval_state(kernel, state), K)
    np.testing.assert_array_max_ulp(direct, K, maxulp=2)
    np.testing.assert_array_equal(grads[1], K)


def test_matern_workspace_variant_is_bit_identical():
    kernel = Matern52(0.35, 1.2)
    rng = np.random.default_rng(5)
    pi = kernel.precompute_input(rng.uniform(size=(20, 3)))
    state = kernel.cross_state(pi, pi)
    ws: dict = {}
    K_ws, grads_ws = kernel.eval_and_gradient_state(state, ws)
    np.testing.assert_array_equal(libm_eval_state(kernel, state), K_ws)
    K_first, G_first = K_ws.copy(), grads_ws[0].copy()
    # The workspace is reused across calls: same buffers, same values.
    K_ws2, grads_ws2 = kernel.eval_and_gradient_state(state, ws)
    assert K_ws2 is K_ws and grads_ws2[0] is grads_ws[0]
    np.testing.assert_array_equal(K_ws2, K_first)
    np.testing.assert_array_equal(grads_ws2[0], G_first)
    # A differently shaped state gets fresh buffers of its own shape.
    small = state[:4, :4]
    K_small, _ = kernel.eval_and_gradient_state(small, ws)
    np.testing.assert_array_equal(K_small, libm_eval_state(kernel, small))


def test_kernel_diag_matches_full_matrix():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(15, 2))
    for kernel in all_kernels():
        pi = kernel.precompute_input(X)
        full = np.diag(kernel(X, X))
        fast = kernel.diag(pi)
        np.testing.assert_allclose(fast, full, rtol=1e-12, atol=1e-12)


def test_analytic_lml_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    X = rng.uniform(size=(14, 2))
    y = np.sin(X.sum(axis=1) * 2.0)
    # Rounding duplicates rows, so a larger noise keeps K well-conditioned —
    # otherwise the finite-difference reference (not the analytic gradient)
    # becomes numerically meaningless.
    gp = GaussianProcessRegressor(
        Matern52(0.3, scale=np.array([5.0, 6.0])),
        noise=1e-3,
        optimize_hyperparameters=False,
    ).fit(X, y)
    fun = gp._make_analytic_objective()
    theta = gp.kernel.get_theta().copy()
    val, grad = fun(theta)
    eps = 1e-6
    for j in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[j] += eps
        down[j] -= eps
        num = (fun(up)[0] - fun(down)[0]) / (2.0 * eps)
        assert grad[j] == pytest.approx(num, rel=1e-4, abs=1e-6)
    # Value agrees with the textbook likelihood (up to sign).
    gp.kernel.set_theta(theta)
    K = gp.kernel(gp.X_train, gp.X_train)
    assert val == pytest.approx(-textbook_lml(K, gp._y, gp.noise), rel=1e-12)
