"""Unit tests for the from-scratch GP regressor."""

import ctypes
import hashlib
import math
import pathlib
import platform
import shutil
import sys
import types

import numpy as np
import pytest
import scipy
from scipy import optimize

from repro.gp import regression
from repro.gp.kernels import Matern52
from repro.gp.regression import GaussianProcessRegressor


def smooth_fn(x):
    return np.sin(3.0 * x).ravel()


class TestFitPredict:
    def test_interpolates_training_points(self):
        X = np.linspace(0, 1, 8)[:, None]
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(Matern52(0.3), noise=1e-8, optimize_hyperparameters=False)
        gp.fit(X, y)
        pred = gp.predict(X)
        np.testing.assert_allclose(pred, y, atol=1e-4)

    def test_posterior_std_small_at_training_points(self):
        X = np.linspace(0, 1, 6)[:, None]
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(Matern52(0.3), noise=1e-8, optimize_hyperparameters=False)
        gp.fit(X, y)
        _, std = gp.predict(X, return_std=True)
        assert np.all(std < 1e-2)

    def test_posterior_std_larger_away_from_data(self):
        X = np.array([[0.0], [0.2]])
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(Matern52(0.2), noise=1e-8, optimize_hyperparameters=False)
        gp.fit(X, y)
        _, std_near = gp.predict([[0.1]], return_std=True)
        _, std_far = gp.predict([[2.0]], return_std=True)
        assert std_far[0] > std_near[0]

    def test_mean_reverts_to_prior_far_away(self):
        X = np.array([[0.0]])
        y = np.array([5.0])
        gp = GaussianProcessRegressor(
            Matern52(0.1), noise=1e-8, optimize_hyperparameters=False
        )
        gp.fit(X, y)
        far = gp.predict([[100.0]])
        # Normalized prior mean is the data mean.
        assert far[0] == pytest.approx(5.0, abs=1e-6)

    def test_predict_before_fit_raises(self):
        gp = GaussianProcessRegressor(Matern52())
        with pytest.raises(RuntimeError):
            gp.predict([[0.0]])

    def test_shape_validation(self):
        gp = GaussianProcessRegressor(Matern52())
        with pytest.raises(ValueError, match="rows"):
            gp.fit(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="zero observations"):
            gp.fit(np.zeros((0, 1)), np.zeros(0))

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(Matern52(), noise=0.0)

    def test_train_accessors(self):
        X = np.linspace(0, 1, 5)[:, None]
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(Matern52(0.3), optimize_hyperparameters=False).fit(X, y)
        np.testing.assert_allclose(gp.X_train, X)
        np.testing.assert_allclose(gp.y_train, y, atol=1e-12)


def _lml(gp) -> float:
    """The likelihood a fit maximizes, at the kernel's current theta."""
    return -gp._make_analytic_objective()(gp.kernel.get_theta())[0]


class TestHyperparameterFit:
    def test_lml_improves_with_optimization(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(20, 1))
        y = smooth_fn(X)
        k_bad = Matern52(length_scale=10.0, variance=0.01)
        gp_fixed = GaussianProcessRegressor(
            Matern52(10.0, 0.01), noise=1e-6, optimize_hyperparameters=False
        ).fit(X, y)
        lml_fixed = _lml(gp_fixed)
        gp_opt = GaussianProcessRegressor(
            k_bad, noise=1e-6, optimize_hyperparameters=True
        ).fit(X, y)
        lml_opt = _lml(gp_opt)
        assert lml_opt >= lml_fixed - 1e-6

    def test_lml_theta_argument_is_side_effect_free(self):
        """The likelihood at a theta does not depend on the thetas the
        objective evaluated before it."""
        X = np.linspace(0, 1, 6)[:, None]
        y = smooth_fn(X)
        gp = GaussianProcessRegressor(Matern52(), optimize_hyperparameters=False).fit(X, y)
        theta0 = gp.kernel.get_theta().copy()
        objective = gp._make_analytic_objective()
        first_val, first_grad = objective(theta0)
        objective(theta0 + 1.0)
        val, grad = objective(theta0)
        assert val == first_val
        assert np.array_equal(grad, first_grad)

    def test_duplicate_inputs_do_not_crash(self):
        # Rounded kernels create exactly duplicated rows; the jittered
        # Cholesky must survive them.
        X = np.array([[0.5], [0.5], [0.7]])
        y = np.array([1.0, 1.0, 2.0])
        kernel = Matern52(0.3, scale=10.0)
        gp = GaussianProcessRegressor(kernel, noise=1e-6, optimize_hyperparameters=False)
        gp.fit(X, y)
        mean = gp.predict([[0.5]])
        assert np.isfinite(mean[0])


class TestNormalization:
    def test_constant_targets_handled(self):
        X = np.linspace(0, 1, 5)[:, None]
        y = np.full(5, 3.0)
        gp = GaussianProcessRegressor(Matern52(0.3), optimize_hyperparameters=False).fit(X, y)
        assert gp.predict([[0.5]])[0] == pytest.approx(3.0, abs=1e-6)


def _random_likelihood(rng):
    """A random GP likelihood problem: (gp, objective, bounds, starts),
    the GP holding its training data.

    Varies the Matern length scale and variance, the input dimension, the
    noise, and whether (and at what scale) inputs are rounded.
    """
    d = int(rng.integers(1, 4))
    length_scale = float(10.0 ** rng.uniform(-1.5, 1.0))
    variance = float(10.0 ** rng.uniform(-2, 1))
    scale = rng.integers(2, 12, size=d) if rng.random() < 0.5 else None
    kernel = Matern52(length_scale, variance, scale=scale)
    n = int(rng.integers(3, 41))
    X = rng.uniform(0.0, 1.0, size=(n, d))
    y = np.sin(5.0 * X @ rng.normal(size=d)) + 0.1 * rng.normal(size=n)
    gp = GaussianProcessRegressor(kernel, noise=float(10.0 ** rng.uniform(-8, -2)))
    gp._set_training_data(X, y)
    bounds = kernel.theta_bounds()
    lows, highs = np.array(bounds).T
    corner = np.where(rng.random(lows.size) < 0.5, lows, highs)
    starts = [
        kernel.get_theta(),
        [lows, highs, corner][int(rng.integers(3))],
        rng.uniform(lows, highs),
    ]
    return gp, gp._make_analytic_objective(), bounds, starts


@pytest.fixture
def fresh_self_check():
    """Re-run the L-BFGS-B self-check inside the test and forget it after."""
    regression._checked_setulb.cache_clear()
    yield
    regression._checked_setulb.cache_clear()


class TestLbfgsbLoop:
    def test_self_check_engages_on_the_installed_scipy(self):
        # A silent fallback to the public entry point must fail tier 1.
        assert regression._checked_setulb() is not None

    def test_bit_equal_to_public_minimize_on_random_likelihoods(self):
        """The Python objective and, where it is bound, the compiled one
        through the loop give public minimize's ``x`` and ``f`` bit for
        bit, each evaluating the likelihood as often as minimize does."""
        setulb = regression._checked_setulb()
        assert setulb is not None
        lml = regression._compiled_lml()
        rng = np.random.default_rng(20211114)
        for problem in range(120):
            gp, fun, bounds, starts = _random_likelihood(rng)
            arrays = regression._SetulbArrays(bounds)
            for x0 in starts:
                ours, ours_calls = regression._counted(fun)
                x, f = regression._lbfgsb_loop(
                    setulb, regression._spec_step(ours), x0, arrays, 100
                )
                theirs, theirs_calls = regression._counted(fun)
                res = optimize.minimize(
                    theirs, x0, method="L-BFGS-B", jac=True, bounds=bounds,
                    options={"maxiter": 100},
                )
                assert np.array_equal(x, res.x), problem
                assert f == res.fun, problem
                assert ours_calls == theirs_calls, problem
                if lml is None:
                    continue
                step = gp._make_compiled_objective(lml)
                x, f = regression._lbfgsb_loop(setulb, step, x0, arrays, 100)
                assert np.array_equal(x, res.x), problem
                assert f == res.fun, problem
                assert [step.buffers[0].evals] == theirs_calls, problem

    def test_iteration_limit_matches_public_minimize(self):
        setulb = regression._checked_setulb()
        _, fun, bounds, starts = _random_likelihood(np.random.default_rng(3))
        x, f = regression._lbfgsb_loop(
            setulb, regression._spec_step(fun), starts[2],
            regression._SetulbArrays(bounds), 2,
        )
        res = optimize.minimize(
            fun, starts[2], method="L-BFGS-B", jac=True, bounds=bounds,
            options={"maxiter": 2},
        )
        assert res.nit == 2
        assert np.array_equal(x, res.x) and f == res.fun

    def test_public_fallback_takes_the_loop_objective(self):
        """Without ``setulb`` the loop objective runs under public
        minimize, with the loop's results."""
        setulb = regression._checked_setulb()
        _, fun, bounds, starts = _random_likelihood(np.random.default_rng(5))
        ours = regression._lbfgsb_loop(
            setulb, regression._spec_step(fun), starts[1],
            regression._SetulbArrays(bounds), 100,
        )
        theirs = regression._public_lbfgsb(
            regression._spec_step(fun), starts[1], bounds, 100
        )
        assert ours == theirs

    @pytest.mark.parametrize(
        "fault", ["setulb-type-error", "setulb-missing", "mismatch"]
    )
    def test_forced_fallback_fits_bit_identically(
        self, fault, fresh_self_check, monkeypatch
    ):
        X = np.random.default_rng(1).uniform(0.0, 1.0, size=(12, 2))
        y = smooth_fn(X[:, :1]) + X[:, 1]
        grid = np.random.default_rng(2).uniform(0.0, 1.0, size=(30, 2))

        def fit():
            gp = GaussianProcessRegressor(Matern52(), seed=4)
            gp.fit(X, y)
            return gp.kernel.get_theta(), *gp.predict(grid, return_std=True)

        assert regression._checked_setulb() is not None
        engaged = fit()
        regression._checked_setulb.cache_clear()
        if fault == "mismatch":
            loop = regression._lbfgsb_loop

            def drifted(*args):
                x, f = loop(*args)
                return x, np.nextafter(f, np.inf)

            monkeypatch.setattr(regression, "_lbfgsb_loop", drifted)
        else:
            # Swap the module the self-check imports setulb from; SciPy's
            # own L-BFGS-B keeps the reference it bound at import.
            def broken(*args):
                raise TypeError("setulb() signature changed")

            stub = types.SimpleNamespace()
            if fault == "setulb-type-error":
                stub.setulb = broken
            monkeypatch.setitem(sys.modules, "scipy.optimize._lbfgsb", stub)
        assert regression._checked_setulb() is None
        fallback = fit()
        for a, b in zip(engaged, fallback):
            assert np.array_equal(a, b)


# sha256 of fitted theta and alpha (after the fit and after one
# add_observation) over the problems of ``_fit_digest``.  Every exp, log
# and sin behind it is libm's, not NumPy's SIMD code (whose AVX-512 float64
# exp differs from libm in the last bit on some inputs), so one digest
# serves AVX2 and AVX-512 code paths: CI also runs it under
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".  The fits' BLAS
# and LAPACK calls still run on OpenBLAS kernels picked per CPU at run time
# (``ddot`` alone already differs in the last bits between them), so the
# digest is keyed by the toolchain and by the OpenBLAS core SciPy loaded.
# CI also runs it under OPENBLAS_CORETYPE=Haswell, the kernels of AVX2-only
# Intel and of AMD hosts.  The x86_64 values were recorded on one AVX-512
# host under OPENBLAS_CORETYPE=SkylakeX (its default), Haswell, Zen (which
# reports Haswell) and Sandybridge.
_FIT_DIGESTS = {
    ("2.4.6", "1.17.1", "x86_64", "SkylakeX"):
        "399a78cff2f48134f94f29f43d35dcc948e588f4c448185735de8af8f523341e",
    ("2.4.6", "1.17.1", "x86_64", "Haswell"):
        "fae3c3670674d52363cb1672afae274edeeb8eb76962318983daebd0252b6558",
    ("2.4.6", "1.17.1", "x86_64", "Sandybridge"):
        "589918d5d49fc691e0b0b58bc9577d988f2e40932af293f0bc102ed5c12107e3",
}


def _openblas_core() -> str | None:
    """The OpenBLAS core name of the library SciPy loads, or None."""
    libs = pathlib.Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas-*.so")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _dot(row, w) -> float:
    """``row . w`` summed left to right, independent of any BLAS."""
    total = 0.0
    for x, c in zip(row, w):
        total += x * c
    return total


def _fit_digest(n_problems: int = 400) -> str:
    rng = np.random.default_rng(20211118)
    h = hashlib.sha256()
    for problem in range(n_problems):
        n = int(rng.integers(4, 41))
        d = int(rng.integers(2, 5))
        bounds = rng.integers(2, 12, size=d)
        X = rng.integers(0, bounds + 1, size=(n + 1, d)) / bounds
        # A fixed-order dot and libm's sin: NumPy's BLAS and SIMD sin would
        # key the inputs by host too.
        w = rng.normal(size=d).tolist()
        u = [4.0 * _dot(row, w) for row in X.tolist()]
        y = np.array(list(map(math.sin, u))) + 0.05 * rng.normal(size=n + 1)
        gp = GaussianProcessRegressor(
            Matern52(0.3, 1.0, scale=bounds.astype(float)),
            noise=1e-5, seed=problem,
        ).fit(X[:n], y[:n])
        h.update(gp.kernel.get_theta().tobytes())
        h.update(gp._alpha.tobytes())
        gp.add_observation(X[n], y[n])
        h.update(gp._alpha.tobytes())
    return h.hexdigest()


def _assert_recorded_digest() -> None:
    toolchain = (
        np.__version__, scipy.__version__, platform.machine(), _openblas_core()
    )
    if toolchain not in _FIT_DIGESTS:
        pytest.skip(f"no fit digest recorded for toolchain {toolchain}")
    assert regression._checked_setulb() is not None
    assert _fit_digest() == _FIT_DIGESTS[toolchain]


def test_fits_match_the_recorded_digest_bit_for_bit():
    """Fits on the compiled likelihood, wherever a C compiler exists."""
    if shutil.which("cc") is not None:
        assert regression._compiled_lml() is not None
    _assert_recorded_digest()


def test_python_objective_fits_match_the_recorded_digest(monkeypatch):
    """Fits on the Python likelihood, as on a host without a compiler."""
    monkeypatch.setattr(regression, "_compiled_lml", lambda: None)
    _assert_recorded_digest()
