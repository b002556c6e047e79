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

Compiled likelihood: even unwrapped, a call costs ~40 µs at n = 10, nearly
all of it NumPy's per-ufunc overhead around a tiny Cholesky.
:meth:`GaussianProcessRegressor._make_compiled_objective` makes one call
into ``_lml.c`` per evaluation, which takes ``theta`` and does the whole
evaluation with the same float operations: ``exp(theta)``, the kernel and
gradient matrices, ``dpotrf``/``dpotrs``/``ddot`` (SciPy's own routines,
taken from the public ``cython_lapack``/``cython_blas`` capsules), the
log-determinant in ``ndarray.sum``'s pairwise order and the gradient
traces, ~4 µs a call at n = 10.  One more call at the chosen theta leaves
the training matrix's ``dpotrf`` factor, which the fit keeps instead of
factoring again.  Every ``exp`` and ``log`` on the fit side
is libm's, in C and in the Python spec alike (``math.exp``/``math.log``,
see :mod:`repro.gp.kernels`), so fits do not depend on the SIMD code NumPy
dispatches to and give the same bits on AVX2 and AVX-512 hosts.
:meth:`~GaussianProcessRegressor._make_analytic_objective` stays its spec
and fallback: a ``dpotrf`` failure hands that call to it (the jitter path),
and :func:`_compiled_lml` builds the C file through :mod:`repro._native` at
the first fit and keeps it only if fixed problems (n = 3, 10 and 40 and a
singular one) give bit-equal ``f`` and ``g`` through both objectives, and
that factor bit-equal to :meth:`~GaussianProcessRegressor._factorize_raw`'s.
Without a compiler, or on any mismatch, every fit runs the Python
objective, with identical results (its list-based libm ``exp`` makes it
slower than NumPy's ufunc would, most at n ≈ 32).
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np
from scipy import linalg as sla
from scipy import optimize
from scipy.linalg import get_lapack_funcs

from repro import _native
from repro.gp.kernels import (
    Matern52,
    PreparedInput,
    _as_2d,
    concat_prepared,
)

_LOG_2PI = math.log(2.0 * math.pi)

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


class _LmlFit(ctypes.Structure):
    """``struct lml_fit`` of ``_lml.c``: one fit's problem and buffers."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("sym", ctypes.c_int64),
        ("noise", ctypes.c_double),
        ("cnst", ctypes.c_double),
    ] + [
        (name, ctypes.c_void_p) for name in ("potrf", "potrs", "ddot", "work")
    ]


class _CompiledLml:
    """ctypes binding of ``_lml.c``'s ``lml_eval``, with the addresses of
    SciPy's ``dpotrf``, ``dpotrs`` and ``ddot``."""

    def __init__(self, lib: ctypes.CDLL):
        from scipy.linalg import cython_blas, cython_lapack

        api = ctypes.pythonapi
        get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", api)
        )
        get_pointer = ctypes.PYFUNCTYPE(
            ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
        )(("PyCapsule_GetPointer", api))

        def routine(module, name: str) -> int:
            capsule = module.__pyx_capi__[name]
            return get_pointer(capsule, get_name(capsule))

        self.routines = (
            routine(cython_lapack, "dpotrf"),
            routine(cython_lapack, "dpotrs"),
            routine(cython_blas, "ddot"),
        )
        self.evaluate = lib.lml_eval
        self.evaluate.argtypes = (ctypes.c_void_p, ctypes.c_double, ctypes.c_double)
        self.evaluate.restype = ctypes.c_double


def _self_check_problems():
    """The fixed likelihoods of :func:`_compiled_lml_agrees`: rounded
    inputs at n = 3, 10 and 40, and n = 10 copies of one point under a
    noise too small to register, whose K + noise I is singular, so
    ``dpotrf`` fails and the objective takes the jitter path."""
    rng = np.random.default_rng(20211114)
    for n, d in ((3, 2), (10, 3), (40, 4)):
        bounds = rng.integers(2, 12, size=d)
        X = rng.integers(0, bounds + 1, size=(n, d)) / bounds
        y = np.sin(4.0 * X @ rng.normal(size=d)) + 0.05 * rng.normal(size=n)
        gp = GaussianProcessRegressor(
            Matern52(0.3, 1.0, scale=bounds.astype(float)), noise=1e-5
        )
        gp._set_training_data(X, y)
        yield gp
    gp = GaussianProcessRegressor(Matern52(), noise=1e-300)
    gp._set_training_data(np.full((10, 2), 0.5), np.arange(10.0))
    yield gp


def _compiled_lml_agrees(lml: _CompiledLml) -> bool:
    """Bit-equality of the compiled and the Python objective, ``f`` and
    ``g``, and of the compiled objective's ``factor`` and
    :meth:`~GaussianProcessRegressor._factorize_raw`'s where ``dpotrf``
    succeeds, on :func:`_self_check_problems` at the kernel's default
    theta, the four bound corners and four uniform draws within the
    bounds."""
    rng = np.random.default_rng(7)
    for gp in _self_check_problems():
        lows, highs = np.array(gp.kernel.theta_bounds()).T
        thetas = [gp.kernel.get_theta(), lows, highs,
                  np.array([lows[0], highs[1]]), np.array([highs[0], lows[1]])]
        thetas += [rng.uniform(lows, highs) for _ in range(4)]
        spec = gp._make_analytic_objective()
        ours = gp._make_compiled_objective(lml)
        for theta in thetas:
            f_spec, g_spec = spec(theta)
            f_ours, g_ours = ours(theta)
            if not (
                np.float64(f_ours).tobytes() == np.float64(f_spec).tobytes()
                and g_ours.tobytes() == g_spec.tobytes()
            ):
                return False
            L = ours.factor(theta)
            if L is not None:
                gp.kernel.set_theta(theta)
                gp._factorize_raw()
                if L.tobytes() != gp._L.tobytes():
                    return False
    return True


@functools.cache
def _compiled_lml() -> _CompiledLml | None:
    """The compiled likelihood if ``_lml.c`` builds, binds SciPy's LAPACK
    and reproduces :meth:`GaussianProcessRegressor._make_analytic_objective`
    bit for bit here, else None (the Python objective runs).

    Runs once per process, at the first hyperparameter fit.
    """
    return _native.load("repro.gp", "_lml.c", _CompiledLml, _compiled_lml_agrees)


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
        L = None
        if self.optimize_hyperparameters and self._X.shape[0] >= 3:
            L = self._optimize_theta()
        self._factorize(L)
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

    def _factorize(self, L: np.ndarray | None = None) -> None:
        """Factor the training matrix, unless the fit hands over its factor
        ``L``, and solve for ``alpha``."""
        assert self._pi is not None and self._y is not None
        if L is None:
            self._factorize_raw()
        else:
            self._L = L
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
        k_vec = self._train_kernel(self.kernel.cross_state(self._pi, pi_new))
        k_vec = k_vec.reshape(-1)
        kxx = float(self._train_kernel(self.kernel.cross_state(pi_new, pi_new))[0, 0])
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

    def _train_kernel(self, r0: np.ndarray) -> np.ndarray:
        """The kernel matrix at training distances ``r0`` as the likelihood
        builds it (libm's ``exp``), in a fresh array."""
        K, _ = self.kernel.eval_and_gradient_state(r0, {})
        return K

    def _factorize_raw(self) -> None:
        """Full factorization of the current training set (no alpha)."""
        K = self._train_kernel(self._ensure_train_state())
        K[np.diag_indices_from(K)] += self.noise
        self._L = self._stable_cholesky(K)

    # -- hyperparameter optimization ------------------------------------------
    def _make_analytic_objective(self):
        """Negative LML and its exact log-space gradient (R&W Eq. 5.9).

        Built as a closure so everything theta-independent — the kernel's
        prepared train structure, the noise matrix, the identity for the
        ``K^-1`` solve — is hoisted out of the L-BFGS-B evaluation loop.
        Every ``exp`` and ``log`` is libm's (``set_theta``,
        ``eval_and_gradient_state`` and ``math.log`` on the factor's
        diagonal), summed by ``ndarray.sum``: the compiled objective
        repeats exactly these.
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
            log_diag = np.fromiter(map(math.log, L.diagonal().tolist()), float, n)
            lml = float(-0.5 * y @ alpha - log_diag.sum() - const)
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

    def _make_compiled_objective(self, lml: _CompiledLml):
        """:meth:`_make_analytic_objective` in one C call per evaluation.

        ``lml.evaluate`` takes ``theta`` and does the whole evaluation with
        the same float operations.  Where ``dpotrf`` fails it returns NaN
        and the call returns the Python objective's value, which takes the
        jitter path.  One workspace is allocated and its address taken once
        per fit; the first call checks the training distances for symmetry.
        """
        y = self._y
        n = y.size
        # struct lml_fit's work layout: r0 and y, then C's buffers, the
        # last two entries the gradient.
        work = np.empty(6 * n * n + 4 * n + 2)
        work[: n * n] = self._ensure_train_state().ravel()
        work[n * n : n * n + n] = y
        g = work[-2:]
        # The factor, F order: A[i + j n] is L[i, j].
        A = work[4 * n * n + 2 * n : 5 * n * n + 2 * n].reshape(n, n).T
        fit = _LmlFit(
            n, -1, self.noise, 0.5 * n * _LOG_2PI, *lml.routines, work.ctypes.data
        )
        address = ctypes.addressof(fit)
        evaluate = lml.evaluate
        spec = []

        def neg_lml_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
            f = evaluate(address, *theta.tolist())
            if f != f:  # NaN: K + noise I is not positive definite
                if not spec:
                    spec.append(self._make_analytic_objective())
                return spec[0](theta)
            return f, g.copy()

        def factor(theta: np.ndarray) -> np.ndarray | None:
            """:meth:`_stable_cholesky`'s factor of the training matrix at
            ``theta`` (``dpotrf`` on the same matrix, upper triangle
            zeroed, F order), or None where ``dpotrf`` fails."""
            f = evaluate(address, *theta.tolist())
            if f != f:
                return None
            return np.asfortranarray(np.tril(A))

        # C holds the workspace's address only: keep it alive with the
        # objective.
        neg_lml_and_grad.buffers = (fit, work)
        neg_lml_and_grad.factor = factor
        return neg_lml_and_grad

    def _optimize_theta(self) -> np.ndarray | None:
        """Set the kernel to the likelihood's best theta; return the
        compiled objective's factor of the training matrix there, or None
        (:meth:`_factorize_raw` then factors it)."""
        bounds = self.kernel.theta_bounds()
        lml = _compiled_lml()
        if lml is None:
            fun = self._make_analytic_objective()
        else:
            fun = self._make_compiled_objective(lml)
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
        if best_theta is None or not np.isfinite(best_val):
            return None
        self.kernel.set_theta(best_theta)
        return None if lml is None else fun.factor(best_theta)

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
