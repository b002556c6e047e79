"""Exact Gaussian process regression.

Standard GP machinery (Rasmussen & Williams ch. 2) implemented directly on
numpy/scipy:

* posterior mean/variance via a Cholesky factorization of
  ``K + sigma_n^2 I`` (jitter-stabilized);
* hyperparameter selection by maximizing the log marginal likelihood with
  L-BFGS-B over the kernel's log-space parameter vector from two starts
  (the current theta, then one uniform draw within the bounds), with
  exact gradients (``jac=True``, R&W Eq. 5.9) — one kernel build per
  line-search step.

Own L-BFGS-B loop: a fit sees ~10 points, so the per-call layers of
``optimize.minimize`` (method dispatch, bounds standardization, the
scalar-function and Jacobian-memo wrappers) cost more than the
likelihood.  Fits therefore run their own reverse-communication loop
around SciPy's ``setulb`` kernel with SciPy's exact settings
(:func:`_lbfgsb_loop`).  ``setulb`` is private SciPy API, so the first
fit in a process runs a self-check
(:func:`_checked_setulb`): a fixed likelihood through the loop and
through public ``optimize.minimize`` must give bit-equal ``x`` and ``fun``
with equally many objective calls.  On a mismatch, or if ``setulb`` is
gone or rejects its arguments, every fit in the process uses the public
entry point, with identical results at more per-call cost.

Hot-path structure: the theta-independent pairwise structure of the
training set (distances, rounding) is prepared once per ``fit`` and reused
by every likelihood evaluation, and :meth:`GaussianProcessRegressor.
add_observation` extends a fitted GP by one observation with a rank-1
Cholesky border (O(n^2)) instead of a refit (O(n^3) per likelihood step).

A fit makes 30–60 likelihood calls of a few tens of µs on ≤ 40 points, so
the likelihood and the loop around it skip per-call wrappers while
keeping every floating-point op: LAPACK ``dpotrf``/``dpotrs`` are called
directly (the routines ``cholesky``/``cho_solve`` dispatch to), the
log-determinant sums ``log(L.diagonal())``, and the loop's repeat check
compares ``x.tolist()``.  Fitted thetas and ``alpha`` are bit-identical to
the wrapped calls (``tests/test_gp_regression.py`` pins a digest).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import linalg as sla
from scipy import optimize
from scipy.linalg import get_lapack_funcs

from repro.gp.kernels import Matern52, PreparedInput, _as_2d, concat_prepared

_LOG_2PI = np.log(2.0 * np.pi)

# Hoisted float64 LAPACK routines: the likelihood optimizer calls them a few
# hundred times per fit, where the scipy wrapper overhead (validation,
# dispatch) costs more than the n<=60 factorizations themselves.  dpotrf /
# dpotrs are exactly what scipy.linalg.cholesky / cho_solve dispatch to, so
# results are bit-identical.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))

# SciPy's L-BFGS-B settings under ``optimize.minimize(method="L-BFGS-B")``
# defaults (maxcor, ftol / eps, gtol, maxls).  The loop below must use
# exactly these: it reproduces SciPy's iterates bit for bit.
_M = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAXLS = 20


def _lbfgsb_loop(setulb, fun, x0, lows, highs, maxiter: int):
    """L-BFGS-B on ``fun -> (f, g)`` by reverse communication with ``setulb``.

    The loop of ``optimize.minimize(method="L-BFGS-B", jac=True)`` without
    its wrapper layers, which cost more than the likelihood on a ~10-point
    GP.  ``fun`` runs only when ``setulb`` asks (``task == 3``); a repeated
    request at the last evaluated point reuses its ``(f, g)``, as SciPy's
    ``array_equal`` cache does.  Returns ``(x, f)``.
    """
    n, m = x0.size, _M
    x = np.array(x0, dtype=np.float64)
    lo_ok, hi_ok = np.isfinite(lows), np.isfinite(highs)
    nbd = np.where(lo_ok, np.where(hi_ok, 2, 1), np.where(hi_ok, 3, 0))
    nbd = nbd.astype(np.int32)
    low, high = np.where(lo_ok, lows, 0.0), np.where(hi_ok, highs, 0.0)
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    x_seen, fg_seen, n_iter = None, None, 0
    while True:
        # setulb writes into g: hand it a copy so the cached gradient stays
        # intact (SciPy's loop does the same with a float64 ``astype``).
        g = g.copy()
        setulb(m, x, low, high, nbd, f, g, _FACTR, _PGTOL, wa, iwa, task,
               lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:
            # List equality is array_equal here at a tenth of the cost
            # (element-wise ``==``, so a NaN never matches).
            x_list = x.tolist()
            if x_list != x_seen:
                x_seen, fg_seen = x_list, fun(x.copy())
            f, g = fg_seen
        elif task[0] == 1:
            # maxfun (15000) cannot bind: maxiter * maxls caps the calls.
            n_iter += 1
            if n_iter >= maxiter:
                task[0], task[1] = 5, 504  # STOP: iteration limit
        else:
            return x, f


def _counted(fun):
    """``fun`` plus a list whose one entry counts its calls."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return fun(x)

    return wrapped, calls


@functools.cache
def _checked_setulb():
    """SciPy's ``setulb`` if the loop reproduces SciPy here, else None.

    Runs once per process, at the first hyperparameter fit: a fixed
    small GP likelihood goes through :func:`_lbfgsb_loop` and through
    public ``optimize.minimize`` from three starts (the kernel default and
    both bound corners).  ``x`` and ``fun`` must be bit-equal and the
    objective must run equally often; a mismatch, or an import, signature
    or argument error from SciPy's private module, sends every fit in the
    process through the public entry point instead.
    """
    # From the default start this problem re-requests an evaluated point
    # twice, so the check also covers the loop's repeat cache.
    gp = GaussianProcessRegressor(Matern52(0.5))
    X = np.linspace(0.0, 1.0, 9)[:, None]
    gp._set_training_data(X, np.sin(4.0 * X).ravel())
    fun = gp._make_analytic_objective()
    bounds = gp.kernel.theta_bounds()
    lows, highs = np.array(bounds).T
    try:
        # repro-lint: disable=private-import(this self-check proves the loop bit-equal to public optimize.minimize; any mismatch falls back to it)
        from scipy.optimize._lbfgsb import setulb

        for x0 in (gp.kernel.get_theta(), lows, highs):
            ours, ours_calls = _counted(fun)
            x, f = _lbfgsb_loop(setulb, ours, x0, lows, highs, 100)
            theirs, theirs_calls = _counted(fun)
            res = optimize.minimize(
                theirs, x0, method="L-BFGS-B", jac=True, bounds=bounds,
                options={"maxiter": 100},
            )
            if not (
                np.array_equal(x, res.x)
                and f == res.fun
                and ours_calls == theirs_calls
            ):
                return None
    except (ImportError, TypeError, ValueError):
        return None
    return setulb


def _minimize_lbfgsb(fun, x0, bounds, maxiter: int):
    """L-BFGS-B minimum ``(x, f)`` of ``fun -> (f, g)`` within ``bounds``.

    Uses :func:`_lbfgsb_loop` once :func:`_checked_setulb` has vouched for
    it, and public ``optimize.minimize`` otherwise, with identical results.
    """
    setulb = _checked_setulb()
    if setulb is not None:
        lows, highs = np.array(bounds, dtype=float).T
        return _lbfgsb_loop(setulb, fun, x0, lows, highs, maxiter)
    res = optimize.minimize(
        fun,
        x0,
        method="L-BFGS-B",
        jac=True,
        bounds=bounds,
        options={"maxiter": maxiter},
    )
    return res.x, res.fun


class GaussianProcessRegressor:
    """GP regression on normalized targets.

    Parameters
    ----------
    kernel:
        The Matern 5/2 covariance (its hyperparameters are mutated by
        ``fit`` when ``optimize_hyperparameters`` is on).
    noise:
        Observation noise variance ``sigma_n^2`` added to the kernel
        diagonal.  Ribbon's objective evaluations are deterministic given a
        trace, so the default is a small stabilizing value.  Targets are
        centered and scaled before fitting and restored on prediction.
    optimize_hyperparameters:
        Maximize the log marginal likelihood on ``fit`` (L-BFGS-B from the
        current theta, then from one uniform draw within the bounds).
    seed:
        Seed for the drawn start.
    """

    def __init__(
        self,
        kernel: Matern52,
        noise: float = 1e-6,
        *,
        optimize_hyperparameters: bool = True,
        seed: int = 0,
    ):
        if noise <= 0:
            raise ValueError(f"noise must be positive, got {noise!r}")
        self.kernel = kernel
        self.noise = float(noise)
        self.optimize_hyperparameters = bool(optimize_hyperparameters)
        self._rng = np.random.default_rng(seed)
        self._X: np.ndarray | None = None
        self._pi: PreparedInput | None = None
        self._train_state = None
        self._y: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    # -- fitting -------------------------------------------------------------
    def fit(self, X, y) -> "GaussianProcessRegressor":
        """Condition the GP on observations ``(X, y)``."""
        self._set_training_data(X, y)
        if self.optimize_hyperparameters and self._X.shape[0] >= 3:
            self._optimize_theta()
        self._factorize()
        return self

    def _set_training_data(self, X, y) -> None:
        """Store validated training data and its theta-independent state."""
        X = _as_2d(X)
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if X.shape[0] == 0:
            raise ValueError("cannot fit a GP on zero observations")
        self._X = X
        self._pi = self.kernel.precompute_input(X)
        self._train_state = self.kernel.cross_state(self._pi, self._pi)
        self._y_raw = y.copy()
        self._set_targets(y)

    def _set_targets(self, y: np.ndarray) -> None:
        self._y_mean = float(y.mean())
        std = float(y.std())
        self._y_std = std if std > 1e-12 else 1.0
        self._y = (y - self._y_mean) / self._y_std

    def _ensure_train_state(self):
        if self._train_state is None:
            self._train_state = self.kernel.cross_state(self._pi, self._pi)
        return self._train_state

    def _factorize(self) -> None:
        assert self._pi is not None and self._y is not None
        self._factorize_raw()
        self._alpha, _ = _POTRS(self._L, self._y, lower=1)

    @staticmethod
    def _stable_cholesky(K: np.ndarray) -> np.ndarray:
        """Cholesky with escalating jitter for near-singular matrices."""
        L, info = _POTRF(K, lower=1, clean=1, overwrite_a=0)
        if info == 0:
            return L
        base = np.mean(np.diag(K)) if K.size else 1.0
        for attempt in range(1, 6):
            jitter = base * 10.0 ** (attempt - 9)
            L, info = _POTRF(
                K + jitter * np.eye(K.shape[0]), lower=1, clean=1, overwrite_a=1
            )
            if info == 0:
                return L
        raise sla.LinAlgError(
            "kernel matrix not positive definite even with jitter; "
            "check for duplicated inputs with inconsistent targets"
        )

    # -- incremental conditioning ---------------------------------------------
    def add_observation(self, x, y: float) -> "GaussianProcessRegressor":
        """Condition on one more observation without refitting.

        Extends the Cholesky factor by a rank-1 border (O(n^2)) and
        recomputes the target normalization and ``alpha``; hyperparameters
        are kept as-is (re-optimizing them requires a full :meth:`fit`).
        The updated posterior matches a from-scratch ``fit`` on the extended
        data with ``optimize_hyperparameters=False`` to numerical precision.
        """
        if self._X is None or self._L is None or self._pi is None:
            raise RuntimeError("call fit() before add_observation()")
        x2 = np.asarray(x, dtype=float)
        if x2.ndim == 1:
            x2 = x2[None, :]  # one observation row (not a 1-D feature column)
        if x2.shape != (1, self._X.shape[1]):
            raise ValueError(
                f"expected one row of dimension {self._X.shape[1]}, "
                f"got shape {x2.shape}"
            )
        pi_new = self.kernel.precompute_input(x2)
        k_vec = self.kernel.eval_state(
            self.kernel.cross_state(self._pi, pi_new)
        ).reshape(-1)
        kxx = float(
            self.kernel.eval_state(self.kernel.cross_state(pi_new, pi_new))[0, 0]
        )
        l12 = sla.solve_triangular(
            self._L, k_vec, lower=True, check_finite=False
        )
        d = kxx + self.noise - float(l12 @ l12)

        n = self._X.shape[0]
        self._X = np.vstack([self._X, x2])
        self._pi = concat_prepared(self._pi, pi_new)
        self._train_state = None  # rebuilt lazily when needed
        self._y_raw = np.append(self._y_raw, float(y))
        if d > 0.0:
            L_new = np.zeros((n + 1, n + 1))
            L_new[:n, :n] = self._L
            L_new[n, :n] = l12
            L_new[n, n] = np.sqrt(d)
            self._L = L_new
        else:
            # The bordered factor lost positive definiteness (e.g. an exactly
            # duplicated input under a rounded kernel): fall back to the
            # jitter-stabilized full factorization.
            self._factorize_raw()
        self._set_targets(self._y_raw)
        self._alpha, _ = _POTRS(self._L, self._y, lower=1)
        return self

    def _factorize_raw(self) -> None:
        """Full factorization of the current training set (no alpha)."""
        K = self.kernel.eval_state(self._ensure_train_state()).copy()
        K[np.diag_indices_from(K)] += self.noise
        self._L = self._stable_cholesky(K)

    # -- hyperparameter optimization ------------------------------------------
    def log_marginal_likelihood(self, theta: np.ndarray | None = None) -> float:
        """Log marginal likelihood of the (normalized) training targets."""
        if self._pi is None or self._y is None:
            raise RuntimeError("call fit() before log_marginal_likelihood()")
        if theta is not None:
            saved = self.kernel.get_theta()
            self.kernel.set_theta(np.asarray(theta, dtype=float))
        try:
            K = self.kernel.eval_state(self._ensure_train_state()).copy()
            K[np.diag_indices_from(K)] += self.noise
            L = self._stable_cholesky(K)
        except sla.LinAlgError:
            return -np.inf
        finally:
            if theta is not None:
                self.kernel.set_theta(saved)
        alpha = sla.cho_solve((L, True), self._y, check_finite=False)
        return float(
            -0.5 * self._y @ alpha
            - np.sum(np.log(np.diag(L)))
            - 0.5 * self._y.size * _LOG_2PI
        )

    def _make_analytic_objective(self):
        """Negative LML and its exact log-space gradient (R&W Eq. 5.9).

        Built as a closure so everything theta-independent — the kernel's
        prepared train structure, the noise matrix, the identity for the
        ``K^-1`` solve — is hoisted out of the L-BFGS-B evaluation loop.
        """
        kernel = self.kernel
        state = self._ensure_train_state()
        y = self._y
        n = y.size
        noise_eye = self.noise * np.eye(n)
        # Solve for alpha and K^-1 in one LAPACK call: [y | I] as RHS block.
        rhs = np.empty((n, n + 1), order="F")
        rhs[:, 0] = y
        rhs[:, 1:] = np.eye(n)
        p = kernel.n_params
        const = 0.5 * n * _LOG_2PI
        kernel_ws: dict = {}

        def neg_lml_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
            kernel.set_theta(theta)
            K, grads = kernel.eval_and_gradient_state(state, kernel_ws)
            Kn = K + noise_eye
            L, info = _POTRF(Kn, lower=1, clean=1, overwrite_a=1)
            if info != 0:
                try:
                    L = self._stable_cholesky(K + noise_eye)
                except sla.LinAlgError:
                    return 1e25, np.zeros(p)
            sol, _ = _POTRS(L, rhs, lower=1)
            alpha = sol[:, 0]
            lml = float(-0.5 * y @ alpha - np.log(L.diagonal()).sum() - const)
            if not math.isfinite(lml):
                return 1e25, np.zeros(p)
            # d lml / d theta_j = 0.5 tr((alpha alpha^T - K^-1) dK/dtheta_j)
            W = alpha[:, None] * alpha
            W -= sol[:, 1:]
            g = np.empty(p)
            for j, G in enumerate(grads):
                g[j] = 0.5 * np.vdot(W, G)
            return -lml, -g

        return neg_lml_and_grad

    def _optimize_theta(self) -> None:
        bounds = self.kernel.theta_bounds()
        fun = self._make_analytic_objective()
        lows = np.array([b[0] for b in bounds])
        highs = np.array([b[1] for b in bounds])
        starts = [self.kernel.get_theta(), self._rng.uniform(lows, highs)]

        best_theta, best_val = None, np.inf
        for x0 in starts:
            x, f = _minimize_lbfgsb(
                fun, np.clip(x0, lows, highs), bounds=bounds, maxiter=100
            )
            if f < best_val:
                best_val, best_theta = float(f), x
        if best_theta is not None and np.isfinite(best_val):
            self.kernel.set_theta(best_theta)

    # -- prediction ------------------------------------------------------------
    def predict(self, X, return_std: bool = False):
        """Posterior mean (and optionally standard deviation) at ``X``.

        ``X`` may be a plain ``(m, d)`` array or a :class:`PreparedInput`
        produced by ``kernel.precompute_input`` — callers predicting over
        the same candidate set many times (the BO grid) prepare it once.
        """
        if self._pi is None or self._alpha is None or self._L is None:
            raise RuntimeError("call fit() before predict()")
        pi = X if isinstance(X, PreparedInput) else self.kernel.precompute_input(X)
        K_star = self.kernel.eval_state(self.kernel.cross_state(pi, self._pi))
        mean = K_star @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = sla.solve_triangular(self._L, K_star.T, lower=True, check_finite=False)
        var = self.kernel.diag(pi) - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12)
        return mean, np.sqrt(var) * self._y_std

    @property
    def n_train(self) -> int:
        """Number of conditioning observations (0 before fit)."""
        return 0 if self._X is None else int(self._X.shape[0])

    @property
    def X_train(self) -> np.ndarray:
        """Training inputs (after fit)."""
        if self._X is None:
            raise RuntimeError("GP has not been fit")
        return self._X

    @property
    def y_train(self) -> np.ndarray:
        """Training targets in original units (after fit)."""
        if self._y is None:
            raise RuntimeError("GP has not been fit")
        return self._y * self._y_std + self._y_mean
