"""The compiled GP likelihood against the Python objective it ports.

``regression._compiled_lml()`` builds ``gp/_lml.c`` through
``repro._native`` at the first hyperparameter fit and binds SciPy's
``dpotrf``/``dpotrs``/``ddot`` into it; ``_make_analytic_objective`` is its
spec, its self-check oracle and its fallback.  These tests pin that the two
objectives agree bit for bit, that the compiled one engages where a
compiler exists, and that every way it can be unavailable leaves fits
bit-identical on the Python objective.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro.gp import regression
from repro.gp.kernels import Matern52
from repro.gp.regression import GaussianProcessRegressor

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")


@pytest.fixture
def fresh_lml():
    """A cleared loader cache, cleared again afterwards so later tests
    reload the real library instead of a patched outcome."""
    regression._compiled_lml.cache_clear()
    yield
    regression._compiled_lml.cache_clear()


def rounded_gp(seed: int, n: int, d: int, noise: float = 1e-5):
    """A GP on ``n`` inputs of a ``d``-dimensional integer lattice, with the
    rounding kernel, as the search fits it (training data set, no fit)."""
    rng = np.random.default_rng(seed)
    bounds = rng.integers(2, 12, size=d)
    X = rng.integers(0, bounds + 1, size=(n, d)) / bounds
    y = np.sin(4.0 * X @ rng.normal(size=d)) + 0.05 * rng.normal(size=n)
    gp = GaussianProcessRegressor(
        Matern52(0.3, 1.0, scale=bounds.astype(float)), noise=noise, seed=seed
    )
    gp._set_training_data(X, y)
    return gp


def fit_outcome(X, y, noise=1e-5, seed=4):
    """Fitted theta, alpha and the posterior on a fixed grid, as bytes."""
    gp = GaussianProcessRegressor(Matern52(0.3, 1.0), noise=noise, seed=seed)
    gp.fit(X, y)
    grid = np.random.default_rng(2).uniform(0.0, 1.0, size=(30, X.shape[1]))
    mean, std = gp.predict(grid, return_std=True)
    return [a.tobytes() for a in (gp.kernel.get_theta(), gp._alpha, mean, std)]


X_FIT = np.random.default_rng(1).integers(0, 6, size=(14, 2)) / 5.0
Y_FIT = np.sin(3.0 * X_FIT[:, 0]) + X_FIT[:, 1]
# Every point four times under a noise that does not register on the
# diagonal: K + noise I is singular, so dpotrf fails at every theta.
X_DUP = np.repeat(np.linspace(0.0, 1.0, 3)[:, None], 4, axis=0)
Y_DUP = np.sin(3.0 * X_DUP[:, 0]) + np.arange(12.0) * 1e-3


@needs_cc
def test_compiled_objective_engages_where_a_compiler_exists():
    assert regression._compiled_lml() is not None
    regression._checked_setulb()  # its own self-check runs the Python objective

    def boom(self):  # pragma: no cover - must not run
        raise AssertionError("the Python objective ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GaussianProcessRegressor, "_make_analytic_objective", boom)
        fit_outcome(X_FIT, Y_FIT)


@needs_cc
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    d=st.integers(1, 4),
    noise=st.sampled_from([1e-5, 1e-8, 1e-300]),
    unit_thetas=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        min_size=1, max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_compiled_objective_equals_the_python_objective(
    seed, n, d, noise, unit_thetas
):
    gp = rounded_gp(seed, n, d, noise)
    lows, highs = np.array(gp.kernel.theta_bounds()).T
    spec = gp._make_analytic_objective()
    ours = gp._make_compiled_objective(regression._compiled_lml())
    for unit in unit_thetas:
        theta = lows + np.array(unit) * (highs - lows)
        f_spec, g_spec = spec(theta)
        f_ours, g_ours = ours(theta)
        assert type(f_ours) is type(f_spec)
        assert np.float64(f_ours).tobytes() == np.float64(f_spec).tobytes()
        assert g_ours.tobytes() == g_spec.tobytes()
        # The factor a fit takes from the compiled objective is
        # _factorize_raw's, wherever dpotrf succeeds without jitter.
        L = ours.factor(theta)
        gp.kernel.set_theta(theta)
        K = gp._train_kernel(gp._train_state)
        K[np.diag_indices_from(K)] += gp.noise
        _, info = regression._POTRF(K, lower=1)
        assert (L is None) == (info != 0)
        if L is not None:
            gp._factorize_raw()
            assert L.tobytes() == gp._L.tobytes()
            assert L.flags.f_contiguous and gp._L.flags.f_contiguous


def test_self_check_covers_a_failed_factorization():
    """The last self-check problem is singular at every checked theta, so
    it sends the compiled objective down the jitter path; the others
    factor."""
    problems = list(regression._self_check_problems())
    assert [gp.n_train for gp in problems] == [3, 10, 40, 10]
    for k, gp in enumerate(problems):
        lows, highs = np.array(gp.kernel.theta_bounds()).T
        for theta in (gp.kernel.get_theta(), lows, highs):
            gp.kernel.set_theta(theta)
            K = gp.kernel.eval_state(gp._train_state)
            K[np.diag_indices_from(K)] += gp.noise
            _, info = regression._POTRF(K, lower=1)
            assert (info != 0) == (k == 3)


@needs_cc
def test_failed_factorization_fits_bit_identically(monkeypatch):
    """dpotrf fails on every likelihood call of this fit; the compiled
    objective hands each one to the Python objective's jitter path."""
    assert regression._compiled_lml() is not None
    calls = []
    spec = GaussianProcessRegressor._make_analytic_objective

    def counted(self):
        calls.append(1)
        return spec(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GaussianProcessRegressor, "_make_analytic_objective", counted)
        compiled = fit_outcome(X_DUP, Y_DUP, noise=1e-300)
    assert calls, "the fit never took the jitter path"
    monkeypatch.setattr(regression, "_compiled_lml", lambda: None)
    assert fit_outcome(X_DUP, Y_DUP, noise=1e-300) == compiled


@pytest.mark.parametrize("failure", ["build", "no-compiler", "self-check"])
def test_unavailable_compiled_objective_fits_identically(
    failure, fresh_lml, monkeypatch
):
    with monkeypatch.context() as mp:
        mp.setattr(regression, "_compiled_lml", lambda: None)
        expected = fit_outcome(X_FIT, Y_FIT)

    def raise_oserror(package, filename):
        raise OSError("cc: cannot execute")

    if failure == "build":
        monkeypatch.setattr(_native, "build", raise_oserror)
    elif failure == "no-compiler":
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(regression, "_compiled_lml_agrees", lambda lml: False)
    assert fit_outcome(X_FIT, Y_FIT) == expected
    assert regression._compiled_lml() is None


@needs_cc
def test_self_check_rejects_a_drifted_objective(fresh_lml, monkeypatch):
    """One ulp off in one gradient entry is a mismatch."""
    make = GaussianProcessRegressor._make_compiled_objective

    def drifted(self, lml):
        fun = make(self, lml)

        def wrapped(theta):
            f, g = fun(theta)
            g[1] = np.nextafter(g[1], np.inf)
            return f, g

        return wrapped

    monkeypatch.setattr(GaussianProcessRegressor, "_make_compiled_objective", drifted)
    assert regression._compiled_lml() is None


@needs_cc
def test_self_check_rejects_a_drifted_factor(fresh_lml, monkeypatch):
    """One ulp off in one entry of the factor a fit takes is a mismatch."""
    make = GaussianProcessRegressor._make_compiled_objective

    def drifted(self, lml):
        fun = make(self, lml)
        factor = fun.factor

        def drifted_factor(theta):
            L = factor(theta)
            if L is not None:
                L[-1, 0] = np.nextafter(L[-1, 0], np.inf)
            return L

        fun.factor = drifted_factor
        return fun

    monkeypatch.setattr(GaussianProcessRegressor, "_make_compiled_objective", drifted)
    assert regression._compiled_lml() is None
