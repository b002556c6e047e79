"""Exact Gaussian process regression.

Standard GP machinery (Rasmussen & Williams ch. 2) implemented directly on
numpy/scipy:

* posterior mean/variance via a Cholesky factorization of
  ``K + sigma_n^2 I`` (jitter-stabilized), and with them Expected
  Improvement at candidate points
  (:meth:`GaussianProcessRegressor.predict_ei`);
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
(:func:`_lbfgsb_loop`), which allocates nothing per step.  Its objective
is a ``step(x, g) -> f`` that evaluates at the loop's own ``x``, writes
the gradient into the loop's own ``g`` and keeps the repeat cache of
SciPy's ``ScalarFunction`` itself: ``lml_step`` in C, or
:func:`_spec_step` around the Python likelihood.  The arrays ``setulb``
works in are allocated once per fit (:class:`_SetulbArrays`).  ``setulb``
is private SciPy API, so the first fit in a process runs a self-check
(:func:`_checked_setulb`): a fixed likelihood through the loop and
through public ``optimize.minimize`` must give bit-equal ``x`` and ``fun``
with equally many likelihood evaluations.  On a mismatch, or if
``setulb`` is gone or rejects its arguments, every fit in the process
uses the public entry point on the same objective
(:func:`_public_lbfgsb`), with identical results at more per-call cost.

Hot-path structure: the theta-independent pairwise structure of the
training set (distances, rounding) is prepared once per ``fit`` and reused
by every likelihood evaluation, and :meth:`GaussianProcessRegressor.
add_observation` extends a fitted GP by one observation with a rank-1
Cholesky border (O(n^2)) instead of a refit (O(n^3) per likelihood step).

A fit makes 30–60 likelihood calls of a few tens of µs on ≤ 40 points, so
the likelihood and the loop around it skip per-call wrappers while
keeping every floating-point op: LAPACK ``dpotrf``/``dpotrs`` are called
directly (the routines ``cholesky``/``cho_solve`` dispatch to), the
log-determinant sums ``log(L.diagonal())``, and the Python objective's
repeat check compares ``x.tolist()`` (``==`` element-wise, as SciPy's
``array_equal``).  Fitted thetas and ``alpha`` are bit-identical to the
wrapped calls (``tests/test_gp_regression.py`` pins a digest).

Compiled likelihood: even unwrapped, a call costs ~40 µs at n = 10, nearly
all of it NumPy's per-ufunc overhead around a tiny Cholesky.
:meth:`GaussianProcessRegressor._make_compiled_objective` makes one
``lml_step`` call into ``_lml.c`` per request of the loop.  It reads theta
from the loop's ``x`` and does the whole evaluation with the same float
operations: ``exp(theta)``, the kernel and gradient matrices,
``dpotrf``/``dpotrs``/``ddot`` (SciPy's own routines, taken from the
public ``cython_lapack``/``cython_blas`` capsules), the log-determinant in
``ndarray.sum``'s pairwise order and the gradient traces, ~3 µs a call at
n = 10, writing the gradient into the loop's ``g``.  The fit's workspace
keeps the last evaluated ``(theta, f, g)``, and a repeated request is
answered from it; a failed ``dpotrf`` is never cached.  ``lml_factor`` at
the chosen theta leaves the training matrix's ``dpotrf`` factor, which the
fit keeps instead of factoring again, without evaluating anew where that
theta was the last one evaluated.  Every ``exp`` and ``log`` on the fit side
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
slower than NumPy's ufunc would, most at n ≈ 32).  The same library's
``pcg64_uniform`` draws the fit's random start: NumPy's ``SeedSequence``
and ``PCG64`` in C, the bits of ``Generator(PCG64(seed)).random`` without
the ~10 µs of seeding a ``Generator``; the self-check compares it with
NumPy's, and without it the fit draws from NumPy.

Compiled candidate scorer: the same library holds ``gp_score``, which
scores every candidate of a proposal in one call (~28 µs for 100
candidates at n = 10, against ~68 µs for NumPy's ``predict`` and EI).
Per candidate row it computes the distances to the training rows, the
Matern 5/2 row with libm ``exp``, the mean, the forward substitution
against the training factor, the variance and EI with SciPy's ``ndtr``
(the ``scipy.special.cython_special`` capsule), all in fixed-order loops.
:meth:`GaussianProcessRegressor._predict_spec` and
:func:`~repro.gp.acquisition.expected_improvement` are its spec and
fallback, written in the same order, so a row's bits depend neither on
BLAS nor on which other rows are scored.  :func:`_compiled_scorer` has its
own bit-equality self-check, so either half of the library can decline
alone; the spec costs ~195 µs per such proposal.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import re

import numpy as np
from scipy import linalg as sla
from scipy import optimize
from scipy.linalg import get_lapack_funcs

from repro import _native
from repro.gp.acquisition import expected_improvement
from repro.gp.kernels import (
    Matern52,
    PreparedInput,
    _as_2d,
    concat_prepared,
    take_prepared,
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


@functools.cache
def _setulb_bounds(box: tuple) -> tuple:
    """``setulb``'s bound arrays ``(nbd, low, high)`` for a box of
    ``(low, high)`` pairs, built once per box: every fit of a kernel passes
    the same one."""
    lows, highs = np.array(box).T
    lo_ok, hi_ok = np.isfinite(lows), np.isfinite(highs)
    nbd = np.where(lo_ok, np.where(hi_ok, 2, 1), np.where(hi_ok, 3, 0))
    nbd = nbd.astype(np.int32)
    low, high = np.where(lo_ok, lows, 0.0), np.where(hi_ok, highs, 0.0)
    for a in (nbd, low, high):
        a.flags.writeable = False
    return nbd, low, high


def _views(buffer: np.ndarray, sizes: tuple) -> list:
    """Consecutive views of ``buffer`` of the given sizes."""
    out, start = [], 0
    for size in sizes:
        out.append(buffer[start : start + size])
        start += size
    return out


class _SetulbArrays:
    """What ``setulb`` works in for one box: the bound arrays, the iterate
    ``x``, the gradient ``g`` and the solver's state.

    A fit allocates them once, as views of one float and one int32 buffer,
    for all its starts; :func:`_lbfgsb_loop` zeroes them at each start, as
    SciPy allocates them zeroed at each call."""

    __slots__ = (
        "bounds", "floats", "ints", "x", "g", "wa", "dsave", "iwa", "task",
        "ln_task", "lsave", "isave",
    )

    def __init__(self, box: list):
        n, m = len(box), _M
        self.bounds = _setulb_bounds(tuple(box))
        sizes = (n, n, 2 * m * n + 5 * n + 11 * m * m + 8 * m, 29)
        self.floats = np.zeros(sum(sizes))
        self.x, self.g, self.wa, self.dsave = _views(self.floats, sizes)
        sizes = (3 * n, 2, 2, 4, 44)
        self.ints = np.zeros(sum(sizes), dtype=np.int32)
        self.iwa, self.task, self.ln_task, self.lsave, self.isave = _views(
            self.ints, sizes
        )


def _lbfgsb_loop(setulb, step, x0, arrays: _SetulbArrays, maxiter: int):
    """L-BFGS-B on ``step`` from ``x0`` by reverse communication with
    ``setulb``, in ``arrays``.

    The loop of ``optimize.minimize(method="L-BFGS-B", jac=True)`` without
    its wrapper layers, which cost more than the likelihood on a ~10-point
    GP.  ``step(x, g) -> f`` evaluates the objective at the loop's own
    ``x`` and writes the gradient into the loop's own ``g``; it runs only
    when ``setulb`` asks (``task == 3``) and answers a repeated request at
    its last evaluated point from its own cache, as SciPy's
    ``ScalarFunction`` does.  Nothing is allocated per step: ``setulb``
    reads and writes the same arrays throughout (SciPy hands it a fresh
    ``g`` each step, holding the same values).  Returns ``(x, f)`` with
    ``x`` a list.
    """
    arrays.floats.fill(0.0)
    arrays.ints.fill(0)
    x, g, wa, dsave = arrays.x, arrays.g, arrays.wa, arrays.dsave
    iwa, task, ln_task = arrays.iwa, arrays.task, arrays.ln_task
    lsave, isave = arrays.lsave, arrays.isave
    nbd, low, high = arrays.bounds
    m, factr, pgtol, maxls = _M, _FACTR, _PGTOL, _MAXLS
    x[:] = x0
    f, n_iter = 0.0, 0
    while True:
        setulb(m, x, low, high, nbd, f, g, factr, pgtol, wa, iwa, task,
               lsave, isave, dsave, maxls, ln_task)
        request = task.item(0)
        if request == 3:
            f = step(x, g)
        elif request == 1:
            # maxfun (15000) cannot bind: maxiter * maxls caps the calls.
            n_iter += 1
            if n_iter >= maxiter:
                task[0], task[1] = 5, 504  # STOP: iteration limit
        else:
            return x.tolist(), f


def _spec_step(fun):
    """The loop's objective ``step(x, g) -> f`` over ``fun(theta) ->
    (f, g)``, the Python likelihood: ``fun`` runs at ``x`` and its gradient
    is written to ``g``, except that a request at the last evaluated point
    reuses that evaluation.  Points compare as ``x.tolist()`` lists, which
    is SciPy's ``array_equal`` at a tenth of the cost (element-wise
    ``==``, so a NaN never matches)."""
    seen: list = [None, 0.0, None]

    def step(x, g):
        x_list = x.tolist()
        if x_list != seen[0]:
            seen[1], seen[2] = fun(x)
            seen[0] = x_list
        g[:] = seen[2]
        return seen[1]

    return step


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
    small GP likelihood goes through :func:`_lbfgsb_loop` (as the Python
    objective, :func:`_spec_step`) and through public
    ``optimize.minimize`` from four starts (the kernel default, both bound
    corners and one whose run re-requests evaluated points).  ``x`` and
    ``fun`` must be bit-equal and the
    likelihood must run equally often; a mismatch, or an import, signature
    or argument error from SciPy's private module, sends every fit in the
    process through the public entry point instead.
    """
    gp = GaussianProcessRegressor(Matern52(0.5))
    X = np.linspace(0.0, 1.0, 9)[:, None]
    gp._set_training_data(X, np.sin(4.0 * X).ravel())
    fun = gp._make_analytic_objective()
    box = gp.kernel.theta_bounds()
    lows, highs = np.array(box).T
    try:
        # repro-lint: disable=private-import(this self-check proves the loop bit-equal to public optimize.minimize; any mismatch falls back to it)
        from scipy.optimize._lbfgsb import setulb

        arrays = _SetulbArrays(box)
        # From (-1, 4) setulb re-requests evaluated points four times, so
        # the check also covers the objective's repeat cache.
        for x0 in (gp.kernel.get_theta(), lows, highs, np.array([-1.0, 4.0])):
            ours, ours_calls = _counted(fun)
            x, f = _lbfgsb_loop(setulb, _spec_step(ours), x0, arrays, 100)
            theirs, theirs_calls = _counted(fun)
            res = optimize.minimize(
                theirs, x0, method="L-BFGS-B", jac=True, bounds=box,
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


def _minimize_lbfgsb(step, starts, box: list, maxiter: int):
    """L-BFGS-B on the loop objective ``step`` (see :func:`_lbfgsb_loop`)
    from each of ``starts`` in turn, clipped into the ``box`` of
    ``(low, high)`` pairs: ``(x, f)`` of the first start whose minimum no
    later one beats strictly, or ``(None, inf)`` if none is below inf.

    Runs :func:`_lbfgsb_loop` once :func:`_checked_setulb` has vouched for
    it, and public ``optimize.minimize`` otherwise, with identical results.
    """
    setulb = _checked_setulb()
    arrays = None if setulb is None else _SetulbArrays(box)
    best_x, best_f = None, math.inf
    for x0 in starts:
        # np.clip(x0, lows, highs) on floats (NaN stays NaN).
        x0 = [min(max(v, lo), hi) for v, (lo, hi) in zip(x0, box)]
        if setulb is not None:
            x, f = _lbfgsb_loop(setulb, step, x0, arrays, maxiter)
        else:
            x, f = _public_lbfgsb(step, x0, box, maxiter)
        if f < best_f:
            best_x, best_f = x, float(f)
    return best_x, best_f


def _public_lbfgsb(step, x0, box: list, maxiter: int):
    """``(x, f)`` of public ``optimize.minimize`` on the loop objective
    ``step``, handed a fresh gradient array per call."""

    def fun(x):
        g = np.empty(len(x0))
        return step(x, g), g

    res = optimize.minimize(
        fun, x0, method="L-BFGS-B", jac=True, bounds=box,
        options={"maxiter": maxiter},
    )
    return res.x.tolist(), res.fun


class _LmlFit(ctypes.Structure):
    """``struct lml_fit`` of ``_lml.c``: one fit's problem and buffers."""

    _fields_ = [
        ("n", ctypes.c_int64),
        ("sym", ctypes.c_int64),
        ("noise", ctypes.c_double),
        ("cnst", ctypes.c_double),
    ] + [
        (name, ctypes.c_void_p) for name in ("potrf", "potrs", "ddot", "work")
    ] + [
        ("evals", ctypes.c_int64),
        ("seen", ctypes.c_int64),
        ("last", ctypes.c_double * 5),
    ]


def _capsules(module) -> dict[str, tuple[bytes, int]]:
    """``{name: (signature, address)}`` of a Cython module's C API."""
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api)
    )
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
    )(("PyCapsule_GetPointer", api))
    out = {}
    for name, capsule in module.__pyx_capi__.items():
        signature = get_name(capsule)
        out[name] = (signature, get_pointer(capsule, signature))
    return out


class _CompiledLml:
    """ctypes binding of ``_lml.c``'s ``lml_step``, ``lml_factor`` and
    ``pcg64_uniform``, with the addresses of SciPy's ``dpotrf``, ``dpotrs``
    and ``ddot``."""

    def __init__(self, lib: ctypes.CDLL):
        from scipy.linalg import cython_blas, cython_lapack

        lapack, blas = _capsules(cython_lapack), _capsules(cython_blas)
        self.routines = (
            lapack["dpotrf"][1], lapack["dpotrs"][1], blas["ddot"][1]
        )
        self.step, self.factor = lib.lml_step, lib.lml_factor
        self.step.argtypes = (ctypes.c_void_p,) * 3
        self.factor.argtypes = (ctypes.c_void_p, ctypes.c_double, ctypes.c_double)
        self.uniform = lib.pcg64_uniform
        self.uniform.argtypes = (ctypes.c_uint64, ctypes.c_int64)
        for fn in (self.step, self.factor, self.uniform):
            fn.restype = ctypes.c_double


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
    ``g``, evaluated and then answered again from ``lml_step``'s cache,
    and of the compiled objective's ``factor`` (evaluating, or from the
    cache) and
    :meth:`~GaussianProcessRegressor._factorize_raw`'s where ``dpotrf``
    succeeds, on :func:`_self_check_problems` at the kernel's default
    theta, the four bound corners and four uniform draws within the
    bounds; and of ``pcg64_uniform`` and NumPy's
    ``Generator(PCG64(seed)).random`` on the first four draws of seeds of
    one and two 32-bit words."""
    for seed in (0, 1, 2**31 - 2, 2**32 - 1, 2**32, 2**64 - 1):
        draws = np.random.Generator(np.random.PCG64(seed)).random(4).tolist()
        if [lml.uniform(seed, i) for i in range(4)] != draws:
            return False
    rng = np.random.default_rng(7)
    g = np.empty(2)
    for gp in _self_check_problems():
        lows, highs = np.array(gp.kernel.theta_bounds()).T
        thetas = [gp.kernel.get_theta(), lows, highs,
                  [lows[0], highs[1]], [highs[0], lows[1]]]
        thetas += [rng.uniform(lows, highs) for _ in range(4)]
        spec = gp._make_analytic_objective()
        ours = gp._make_compiled_objective(lml)
        for k, theta in enumerate(thetas):
            theta = np.array(theta)  # the loop's x is contiguous
            f_spec, g_spec = spec(theta)
            # Every other theta is evaluated by the factor, whose
            # evaluation the steps then find in the cache.
            L = ours.factor(theta) if k % 2 else None
            for _ in range(2):
                f_ours = ours(theta, g)
                if not (
                    np.float64(f_ours).tobytes() == np.float64(f_spec).tobytes()
                    and g.tobytes() == g_spec.tobytes()
                ):
                    return False
            if k % 2 == 0:
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


def _address(a: np.ndarray) -> int:
    """The data address of the contiguous array ``a``.  A ctypes view of a
    writable C-contiguous buffer costs a quarter of ``a.ctypes.data``,
    which serves every other array."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


#: ``cython_special``'s capsule name for a C function ``double f(double)``.
_NDTR_SIGNATURE = b"double (double, int __pyx_skip_dispatch)"


class _CompiledScorer:
    """ctypes binding of ``_lml.c``'s ``gp_score``, with the address of
    SciPy's double ``ndtr``.

    ``ndtr`` is a fused function in ``scipy.special.cython_special``, so
    its double entry is found by name and capsule signature; without it
    the scorer declines."""

    def __init__(self, lib: ctypes.CDLL):
        from scipy.special import cython_special

        ndtr = [
            address
            for name, (signature, address) in _capsules(cython_special).items()
            if re.fullmatch(r"(__pyx_fuse_\d+)?ndtr", name)
            and signature == _NDTR_SIGNATURE
        ]
        if len(ndtr) != 1:
            raise LookupError("scipy.special.cython_special has no double ndtr")
        self.ndtr = ndtr[0]
        i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        self.score = lib.gp_score
        self.score.argtypes = (
            (i64,) * 4 + (ptr,) * 5 + (dbl,) * 3 + (ptr,) * 2 + (dbl,) * 3
            + (ptr,) * 5
        )
        self.score.restype = ctypes.c_int

    def __call__(self, gp: "GaussianProcessRegressor", pi: PreparedInput,
                 want_std: bool, best: float | None, rows=None):
        """``(mean, std, ei)`` of the fitted ``gp`` at the rows ``rows`` of
        ``pi`` (all of them if None) in one call; ``std`` is None unless
        ``want_std``, ``ei`` None unless ``best`` is given (which needs
        ``want_std``)."""
        x, sq = np.ascontiguousarray(pi.x), np.ascontiguousarray(pi.sq)
        train = gp._pi
        xt, sqt = np.ascontiguousarray(train.x), np.ascontiguousarray(train.sq)
        # L in F order is L.T in C order: the same bytes.
        alpha, Lt = np.ascontiguousarray(gp._alpha), np.asfortranarray(gp._L).T
        kernel = gp.kernel
        nc, d = x.shape
        if rows is None:
            m, rows_address = nc, None
        else:
            rows = np.ascontiguousarray(rows, dtype=np.int64)
            m, rows_address = rows.size, _address(rows)
        n = xt.shape[0]
        k = 1 + want_std + (best is not None)
        # The outputs, one row each, then the scorer's work: two rows of
        # n doubles per lane of its SCORE_BLOCK (4).
        out = np.empty(k * m + 8 * n)
        base = _address(out)
        status = self.score(
            m, n, d, nc, _address(x), _address(sq), rows_address, _address(xt),
            _address(sqt), kernel.length_scale, kernel.variance,
            kernel.diag_value(), _address(alpha), _address(Lt), gp._y_std,
            gp._y_mean, 0.0 if best is None else best, self.ndtr,
            base, base + 8 * m if want_std else None,
            base + 16 * m if best is not None else None,
            base + 8 * k * m,
        )
        if status != 0:
            raise IndexError(f"candidate rows out of range for {nc} rows")
        return (
            out[:m],
            out[m : 2 * m] if want_std else None,
            out[2 * m : 3 * m] if best is not None else None,
        )


def _compiled_scorer_agrees(scorer: _CompiledScorer) -> bool:
    """Bit-equality of the compiled scorer and
    :meth:`~GaussianProcessRegressor._predict_spec` plus
    :func:`~repro.gp.acquisition.expected_improvement` (mean, std and EI,
    and the mean-only mode) on :func:`_self_check_problems` at the
    kernel's default theta.  Candidates are random rows around the unit
    cube and the training rows themselves (floored variance); incumbents
    are the smallest and the largest target and one above every mean
    (flat EI)."""
    rng = np.random.default_rng(11)
    for gp in _self_check_problems():
        gp._factorize()
        X = gp.X_train
        pi = gp.kernel.precompute_input(
            np.vstack([rng.uniform(-0.2, 1.2, size=(60, X.shape[1])), X])
        )
        mean, std = gp._predict_spec(pi, True)
        if scorer(gp, pi, False, None)[0].tobytes() != mean.tobytes():
            return False
        y = gp.y_train
        for best in (float(y.min()), float(y.max()), float(y.max()) + 1e3):
            ei = expected_improvement(mean, std, best)
            ours = scorer(gp, pi, True, best)
            if any(a.tobytes() != b.tobytes() for a, b in zip(ours, (mean, std, ei))):
                return False
    return True


@functools.cache
def _compiled_scorer() -> _CompiledScorer | None:
    """The compiled candidate scorer if ``_lml.c`` builds, binds SciPy's
    ``ndtr`` and reproduces :meth:`GaussianProcessRegressor._predict_spec`
    and :func:`~repro.gp.acquisition.expected_improvement` bit for bit
    here, else None (the Python spec runs).  Independent of
    :func:`_compiled_lml`: either may decline alone.

    Runs once per process, at the first prediction.
    """
    return _native.load(
        "repro.gp", "_lml.c", _CompiledScorer, _compiled_scorer_agrees
    )


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
        Seed for the drawn start, a non-negative integer: the fits of one
        regressor draw ``Generator(PCG64(seed)).random``'s stream in turn.
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
        self._seed = operator.index(seed)
        if self._seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed!r}")
        self._draws = 0  # uniforms drawn from the seed's stream so far
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
        # y.mean() and y.std() without their Python wrappers: the same
        # reductions and divisions, so the same bits.
        n = y.size
        self._y_mean = float(np.add.reduce(y)) / n
        dev = y - self._y_mean
        std = math.sqrt(float(np.add.reduce(dev * dev)) / n)
        self._y_std = std if std > 1e-12 else 1.0
        self._y = dev / self._y_std

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
        """:meth:`_make_analytic_objective` as the loop's ``step(x, g) ->
        f`` (see :func:`_lbfgsb_loop`), one ``lml_step`` call per request.

        ``lml_step`` reads theta from ``x``, writes the gradient into ``g``
        and answers a repeated theta from its cache, with the same float
        operations as the Python objective.  Where ``dpotrf`` fails it
        returns NaN, caches nothing, and the call takes the Python
        objective's value (the jitter path).  One workspace is allocated
        and its address taken once per fit, and the addresses of ``x`` and
        ``g`` once per pair of arrays; the first evaluation checks the
        training distances for symmetry.
        """
        y = self._y
        n = y.size
        # struct lml_fit's work layout: r0 and y, then C's buffers.
        work = np.empty(6 * n * n + 4 * n)
        work[: n * n] = self._ensure_train_state().ravel()
        work[n * n : n * n + n] = y
        fit = _LmlFit(
            n, -1, self.noise, 0.5 * n * _LOG_2PI, *lml.routines, _address(work)
        )
        address = ctypes.addressof(fit)
        lml_step, lml_factor = lml.step, lml.factor
        spec = []
        # The arrays last passed and their addresses.
        bound_x = bound_g = None
        x_address = g_address = 0

        def step(x: np.ndarray, g: np.ndarray) -> float:
            nonlocal bound_x, bound_g, x_address, g_address
            if x is not bound_x or g is not bound_g:
                # C reads two doubles at x and writes two at g.
                if not (
                    all(a.shape == (2,) and a.dtype == np.float64
                        and a.flags.c_contiguous for a in (x, g))
                    and g.flags.writeable
                ):
                    raise ValueError("x and g must be contiguous float64 pairs")
                bound_x, bound_g = x, g
                x_address, g_address = _address(x), _address(g)
            f = lml_step(address, x_address, g_address)
            if f != f:  # NaN: K + noise I is not positive definite
                if not spec:
                    spec.append(self._make_analytic_objective())
                f, g[:] = spec[0](x)
            return f

        def factor(theta) -> np.ndarray | None:
            """:meth:`_stable_cholesky`'s factor of the training matrix at
            ``theta`` (``dpotrf`` on the same matrix, upper triangle
            zeroed, F order), or None where ``dpotrf`` fails.  No
            evaluation where ``theta`` is the cache's: the workspace
            still holds its factor."""
            f = lml_factor(address, *theta)
            if f != f:
                return None
            # The factor, F order: A[i + j n] is L[i, j].
            A = work[4 * n * n + 2 * n : 5 * n * n + 2 * n]
            return A.reshape(n, n).T.copy(order="F")

        # C holds the workspace's address only: keep it alive with the
        # objective.
        step.buffers = (fit, work)
        step.factor = factor
        return step

    def _optimize_theta(self) -> np.ndarray | None:
        """Set the kernel to the likelihood's best theta; return the
        compiled objective's factor of the training matrix there, or None
        (:meth:`_factorize_raw` then factors it)."""
        kernel = self.kernel
        lml = _compiled_lml()
        if lml is None:
            step = _spec_step(self._make_analytic_objective())
        else:
            step = self._make_compiled_objective(lml)
        box = kernel.theta_bounds()
        # rng.uniform(lows, highs) on floats: the same bits.
        u = self._uniforms(lml, len(box))
        starts = [
            kernel.get_theta().tolist(),
            [lo + (hi - lo) * v for (lo, hi), v in zip(box, u)],
        ]
        theta, f = _minimize_lbfgsb(step, starts, box, maxiter=100)
        if theta is None or not math.isfinite(f):
            return None
        kernel.set_theta(theta)
        return None if lml is None else step.factor(theta)

    def _uniforms(self, lml: _CompiledLml | None, k: int) -> list[float]:
        """The next ``k`` draws of ``Generator(PCG64(seed)).random``: from
        ``lml.uniform`` where the compiled likelihood is bound, else from
        a NumPy generator seeded anew (the same bits either way)."""
        seed, skip = self._seed, self._draws
        self._draws += k
        if lml is not None and seed < 2**64:
            return [lml.uniform(seed, i) for i in range(skip, skip + k)]
        draws = np.random.Generator(np.random.PCG64(seed)).random(skip + k)
        return draws[skip:].tolist()

    # -- prediction ------------------------------------------------------------
    def _prepared(self, X) -> PreparedInput:
        if self._pi is None or self._alpha is None or self._L is None:
            raise RuntimeError("call fit() before predict()")
        return X if isinstance(X, PreparedInput) else self.kernel.precompute_input(X)

    def predict(self, X, return_std: bool = False):
        """Posterior mean (and optionally standard deviation) at ``X``.

        ``X`` may be a plain ``(m, d)`` array or a :class:`PreparedInput`
        produced by ``kernel.precompute_input`` — callers predicting over
        the same candidate set many times (the BO grid) prepare it once.
        One call into the compiled scorer where :func:`_compiled_scorer`
        is bound, else :meth:`_predict_spec`, with the same bits.
        """
        pi = self._prepared(X)
        scorer = _compiled_scorer()
        if scorer is None:
            return self._predict_spec(pi, return_std)
        mean, std, _ = scorer(self, pi, return_std, None)
        return (mean, std) if return_std else mean

    def predict_ei(self, X, best_observed: float, rows=None):
        """Posterior mean, std and EI over ``best_observed`` at the rows
        ``rows`` of ``X`` (all of them if None): :meth:`predict` with
        ``return_std=True`` and
        :func:`~repro.gp.acquisition.expected_improvement`, in one
        compiled call where the scorer is bound.  ``rows`` lets a caller
        score part of a prepared lattice without copying it out."""
        pi = self._prepared(X)
        scorer = _compiled_scorer()
        if scorer is None:
            if rows is not None:
                pi = take_prepared(pi, np.asarray(rows))
            mean, std = self._predict_spec(pi, True)
            return mean, std, expected_improvement(mean, std, best_observed)
        return scorer(self, pi, True, best_observed, rows)

    def _predict_spec(self, pi: PreparedInput, return_std: bool):
        """The posterior (R&W Alg. 2.1, lines 4–6) with every candidate
        row computed on its own in one fixed order, which the compiled
        scorer repeats: the distances of
        :meth:`~repro.gp.kernels.Matern52.ordered_cross_state`, the
        kernel row (libm ``exp``), ``K* alpha`` summed over the training
        rows in order, forward substitution row by row (each row's sum in
        order) and ``sum v^2`` in order."""
        kernel = self.kernel
        K = kernel.eval_state(kernel.ordered_cross_state(pi, self._pi))
        m, n = K.shape
        acc = np.zeros(m)
        for j, a in enumerate(self._alpha.tolist()):
            acc += K[:, j] * a
        mean = acc * self._y_std + self._y_mean
        if not return_std:
            return mean
        # v = L^-1 K*^T column by column: once v[i] is known, its terms
        # join every later row's running sum, so each row sums in order.
        L = self._L
        v = K.T.copy()
        acc = np.zeros((n, m))
        ssq = np.zeros(m)
        for i in range(n):
            v[i] = (v[i] - acc[i]) / L[i, i]
            acc[i + 1 :] += L[i + 1 :, i, None] * v[i]
            ssq += v[i] * v[i]
        var = np.maximum(kernel.diag(pi) - ssq, 1e-12)
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
