"""Ribbon's surrogate covariance kernel: Matern 5/2 (Sec. 4), with the
Eq. 3 rounding when given a ``scale`` (see :class:`Matern52`).

Evaluation splits into a theta-independent part (rounding, pairwise
distances) and a theta-dependent part (the covariance formula), so the
marginal-likelihood optimizer pays the O(n^2 d) distance work once per
fit instead of once per likelihood evaluation:

* :meth:`Matern52.precompute_input` — per-row data for one input set
  (:class:`PreparedInput`: rounded rows + squared norms);
* :meth:`Matern52.cross_state` — the pairwise distance matrix between
  two prepared inputs (the training set's, on the fit side), and
  :meth:`Matern52.ordered_cross_state`, the same distances with each dot
  product summed left to right over the coordinates (the candidate side);
* :meth:`Matern52.eval_state` / :meth:`Matern52.eval_and_gradient_state`
  — the covariance matrix, and with it its exact log-space ``theta``
  gradients, under the *current* hyperparameters.

``__call__`` routes through the same pipeline, so cached and uncached
evaluations are bit-identical by construction.

Every ``exp`` and ``log`` is libm's, through :func:`math.exp` and
:func:`math.log`: the hyperparameter transforms (:meth:`Matern52.set_theta`,
:meth:`~Matern52.get_theta`, :meth:`~Matern52.theta_bounds`), the training
matrices of :meth:`~Matern52.eval_and_gradient_state`, and the candidate
side's :meth:`~Matern52.eval_state` and :meth:`~Matern52.diag`.  Those are
the calls the compiled likelihood and candidate scorer (``gp/_lml.c``)
make, and they do not depend on the SIMD code NumPy dispatches to (its
AVX-512 float64 ``exp`` differs from libm in the last bit on some inputs),
so fits and proposals give the same bits on every x86-64 host.  The two
kernel matrices are one formula: :meth:`~Matern52.eval_state` equals the
``K`` of :meth:`~Matern52.eval_and_gradient_state` bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_JITTER_EPS = 1e-12

_SQRT5 = np.sqrt(5.0)
_NEG_SQRT5 = -_SQRT5
#: :meth:`Matern52.theta_bounds`: length scale in [1e-2, 1e2], variance in
#: [1e-4, 1e2], in log space.
_THETA_BOUNDS = ((math.log(1e-2), math.log(1e2)), (math.log(1e-4), math.log(1e2)))


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """``np.exp(x)`` with every entry from libm's ``exp``."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(
        x.shape
    )


def _as_2d(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"inputs must be 2-D (n, d), got shape {arr.shape}")
    return arr


class PreparedInput:
    """Theta-independent per-row data one kernel extracts from an input set.

    ``x`` holds the rows as the kernel sees them (rounded when the kernel
    has a ``scale``) and ``sq`` their cached squared norms.  Instances are
    produced by :meth:`Matern52.precompute_input` and are only meaningful
    for the kernel that built them.
    """

    __slots__ = ("x", "sq")

    def __init__(self, x: np.ndarray, sq: np.ndarray):
        self.x = x
        self.sq = sq


def concat_prepared(a: PreparedInput, b: PreparedInput) -> PreparedInput:
    """Row-wise concatenation of two prepared inputs of the same kernel.

    Per-row data is independent across rows, so concatenation of prepared
    inputs equals preparation of concatenated inputs bit-for-bit.  Used by
    the incremental GP update to extend its training set in O(d) new work.
    """
    return PreparedInput(np.vstack([a.x, b.x]), np.concatenate([a.sq, b.sq]))


def take_prepared(pi: PreparedInput, idx: np.ndarray) -> PreparedInput:
    """Rows ``idx`` of a prepared input, as if only they had been prepared.

    The row-selection counterpart of :func:`concat_prepared`: per-row data
    is independent across rows, so selecting rows equals preparing the
    selected inputs.  Used to score only the candidate cells of the cached
    lattice preparation.
    """
    return PreparedInput(pi.x.take(idx, axis=0), pi.sq.take(idx))


class Matern52:
    """Matern kernel with smoothness nu = 5/2 (Ribbon's surrogate kernel).

    .. math::

       k(r) = \\sigma^2 (1 + \\sqrt{5} r / \\ell + 5 r^2 / (3 \\ell^2))
              \\exp(-\\sqrt{5} r / \\ell)

    ``scale`` turns on the rounding ``R`` of Eq. 3: every coordinate is
    rounded to the nearest integer *in the original (instance count)
    space*.  Inputs arrive normalized by the per-dimension bounds, so they
    are de-normalized by ``scale``, rounded, and re-normalized.  The GP is
    then piecewise constant across integer cells, so (a) its mean matches
    the step-shaped true objective (Fig. 7b), and (b) the acquisition
    function is constant within a cell, which lets the optimizer skip
    already-sampled cells entirely.  ``scale=None`` evaluates inputs as
    given (the Fig. 7 ablation).
    """

    #: Hyperparameters: log length scale, log variance.
    n_params = 2

    def __init__(
        self,
        length_scale: float = 1.0,
        variance: float = 1.0,
        *,
        scale: np.ndarray | tuple[int, ...] | float | None = None,
    ):
        if length_scale <= 0 or variance <= 0:
            raise ValueError("length_scale and variance must be positive")
        self.length_scale = float(length_scale)
        self.variance = float(variance)
        if scale is not None:
            scale = np.asarray(scale, dtype=float)
            # On floats: a search builds a kernel per refit.
            if any(v <= 0.0 for v in scale.ravel().tolist()):
                raise ValueError("scale must be positive")
        self.scale = scale

    def __call__(self, X1, X2) -> np.ndarray:
        """Covariance matrix between row-sets ``X1`` (n1,d) and ``X2`` (n2,d)."""
        return self.eval_state(
            self.cross_state(self.precompute_input(X1), self.precompute_input(X2))
        )

    # Prepared-evaluation pipeline ------------------------------------------
    def precompute_input(self, X) -> PreparedInput:
        """Theta-independent per-row data for one input set."""
        arr = _as_2d(X)
        if self.scale is not None:
            arr = arr * self.scale
            np.rint(arr, out=arr)
            arr /= self.scale
        # np.sum(arr**2, axis=1) without its wrapper: the same bits.
        return PreparedInput(arr, np.add.reduce(arr * arr, axis=1))

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput) -> np.ndarray:
        """Theta-independent pairwise structure between two prepared inputs."""
        # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b from the cached norms.  The
        # state is sqrt(d^2 + eps): theta-independent, so the O(n^2) sqrt is
        # paid once per fit rather than once per likelihood step.
        d2 = pi1.sq[:, None] + pi2.sq
        d2 -= 2.0 * pi1.x @ pi2.x.T
        np.maximum(d2, 0.0, out=d2)
        d2 += _JITTER_EPS
        return np.sqrt(d2, out=d2)

    def ordered_cross_state(
        self, pi1: PreparedInput, pi2: PreparedInput
    ) -> np.ndarray:
        """:meth:`cross_state` with each ``a.b`` summed left to right over
        the ``d`` coordinates instead of by BLAS, so every entry is one
        fixed sequence of float operations: the candidate distances the
        compiled scorer repeats."""
        x1, x2 = pi1.x, pi2.x
        dot = x1[:, 0, None] * x2[:, 0]
        for k in range(1, x1.shape[1]):
            dot = dot + x1[:, k, None] * x2[:, k]
        d2 = pi1.sq[:, None] + pi2.sq[None, :] - 2.0 * dot
        return np.sqrt(np.maximum(d2, 0.0) + _JITTER_EPS)

    def eval_state(self, r0: np.ndarray) -> np.ndarray:
        """Covariance matrix for a :meth:`cross_state` under current theta
        (libm's ``exp``)."""
        r = r0 / self.length_scale
        sqrt5_r = _SQRT5 * r
        return self.variance * (1.0 + sqrt5_r + 5.0 * r**2 / 3.0) * _libm_exp(
            -sqrt5_r
        )

    def eval_and_gradient_state(
        self, r0: np.ndarray, workspace: dict
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Covariance matrix and its log-space ``dK/dtheta_j``, one pass.

        With u = sqrt(5) r / l:  k = v (1 + u + u^2/3) e^-u, and
        dk/d(log l) = v u^2 (1 + u) / 3 e^-u;  dk/d(log v) = k.
        ``e^-u`` is libm's (the fit side; see the module docstring).

        ``workspace`` is a caller-owned scratch dict in which the kernel
        keeps its output buffers across calls (the likelihood optimizer
        passes one per fit); the returned arrays are only valid until the
        next call with the same workspace.
        """
        # K is eval_state's matrix with libm's exp, bit for bit, with every
        # output written into workspace-owned arrays.  It carries nu = -u
        # instead of u, exactly: (-sqrt5) r == -(sqrt5 r),
        # 1 - nu == 1 + u and nu^2 == u^2 in IEEE arithmetic, which saves
        # the separate negation.
        ws = workspace
        if ws.get("shape") != r0.shape:
            ws.clear()
            ws["shape"] = r0.shape
            for name in ("r", "nu", "one", "t", "K", "G"):
                ws[name] = np.empty(r0.shape)
        r = np.divide(r0, self.length_scale, out=ws["r"])
        nu = np.multiply(_NEG_SQRT5, r, out=ws["nu"])
        E = _libm_exp(nu)
        one_plus_u = np.subtract(1.0, nu, out=ws["one"])
        t = np.power(r, 2, out=ws["t"])
        np.multiply(5.0, t, out=t)
        np.divide(t, 3.0, out=t)
        np.add(one_plus_u, t, out=t)
        K = np.multiply(self.variance, t, out=ws["K"])
        np.multiply(K, E, out=K)
        g = np.power(nu, 2, out=ws["t"])
        np.multiply(g, one_plus_u, out=g)
        np.divide(g, 3.0, out=g)
        G = np.multiply(self.variance, g, out=ws["G"])
        np.multiply(G, E, out=G)
        return K, [G, K]

    def diag_value(self) -> float:
        """The prior variance ``k(x, x)``: :meth:`eval_state` at the
        jittered zero distance."""
        r0 = math.sqrt(_JITTER_EPS) / self.length_scale
        s = _SQRT5 * r0
        return self.variance * (1.0 + s + 5.0 * (r0 * r0) / 3.0) * math.exp(-s)

    def diag(self, pi: PreparedInput) -> np.ndarray:
        """Diagonal of the covariance matrix of ``pi`` with itself."""
        return np.full(pi.x.shape[0], self.diag_value())

    # Log-space hyperparameters ---------------------------------------------
    def get_theta(self) -> np.ndarray:
        """Current hyperparameters as a flat log-space vector."""
        return np.array([math.log(self.length_scale), math.log(self.variance)])

    def set_theta(self, theta) -> None:
        """Set hyperparameters from a flat log-space vector (an array or a
        sequence of floats)."""
        if isinstance(theta, np.ndarray):
            theta = theta.tolist()
        log_l, log_v = map(float, theta)
        self.length_scale, self.variance = math.exp(log_l), math.exp(log_v)

    def theta_bounds(self) -> list[tuple[float, float]]:
        """Log-space (low, high) bounds per hyperparameter."""
        return list(_THETA_BOUNDS)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        text = f"Matern52(length_scale={self.length_scale:.4g}, variance={self.variance:.4g}"
        if self.scale is not None:
            text += f", scale={self.scale.tolist()}"
        return text + ")"
