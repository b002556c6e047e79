"""Covariance kernels.

Ribbon's surrogate kernel (Sec. 4) is **Matern 5/2**: smooth but not
infinitely differentiable, so similar configurations get similar objective
values without assuming an overly smooth objective.  It runs under the
**RoundedKernel** wrapper of Eq. 3, which rounds inputs to the nearest
integer before evaluating, so the GP is constant within each integer cell
of the configuration lattice.

Each kernel exposes its tunable hyperparameters as a flat log-space vector
(``theta``) with per-parameter bounds, so the regressor can maximize the
marginal likelihood with a bounded quasi-Newton optimizer and exact
log-space gradients.

Hot-path structure
------------------
Kernel evaluation splits into a theta-independent part (input transforms,
pairwise distances) and a theta-dependent part (the covariance formula).
The split is exposed as a three-step pipeline so the marginal-likelihood
optimizer can pay the O(n^2 d) distance work once per fit instead of once
per likelihood evaluation:

* :meth:`Kernel.precompute_input` — per-row data for one input set
  (:class:`PreparedInput`: transformed rows + squared norms);
* :meth:`Kernel.cross_state` — the pairwise structure between two prepared
  inputs (a distance matrix);
* :meth:`Kernel.eval_state` / :meth:`Kernel.gradient_state` — covariance
  matrix and its analytic per-``theta`` gradients under the *current*
  hyperparameters.

``__call__`` routes through the same pipeline, so cached and uncached
evaluations are bit-identical by construction.
"""

from __future__ import annotations

import abc

import numpy as np

_JITTER_EPS = 1e-12

_SQRT5 = np.sqrt(5.0)
_NEG_SQRT5 = -_SQRT5


def _as_2d(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"inputs must be 2-D (n, d), got shape {arr.shape}")
    return arr


class PreparedInput:
    """Theta-independent per-row data one kernel extracts from an input set.

    ``x`` holds the rows as the kernel sees them (e.g. rounded for
    :class:`RoundedKernel`) and ``sq`` their cached squared norms.
    Instances are produced by :meth:`Kernel.precompute_input` and are only
    meaningful for the kernel that built them.
    """

    __slots__ = ("x", "sq")

    def __init__(self, x: np.ndarray, sq: np.ndarray):
        self.x = x
        self.sq = sq

    @property
    def n_rows(self) -> int:
        return int(self.x.shape[0])


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
    return PreparedInput(pi.x[idx], pi.sq[idx])


class Kernel(abc.ABC):
    """Covariance function with log-space hyperparameter plumbing."""

    @abc.abstractmethod
    def get_theta(self) -> np.ndarray:
        """Current hyperparameters as a flat log-space vector."""

    @abc.abstractmethod
    def set_theta(self, theta: np.ndarray) -> None:
        """Set hyperparameters from a flat log-space vector."""

    @abc.abstractmethod
    def theta_bounds(self) -> list[tuple[float, float]]:
        """Log-space (low, high) bounds per hyperparameter."""

    @property
    def n_params(self) -> int:
        return len(self.get_theta())

    # Prepared-evaluation pipeline ------------------------------------------
    @abc.abstractmethod
    def precompute_input(self, X) -> PreparedInput:
        """Theta-independent per-row data for one input set."""

    @abc.abstractmethod
    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput) -> np.ndarray:
        """Theta-independent pairwise structure between two prepared inputs."""

    @abc.abstractmethod
    def eval_state(self, state: np.ndarray) -> np.ndarray:
        """Covariance matrix for a :meth:`cross_state` under current theta."""

    @abc.abstractmethod
    def gradient_state(self, state: np.ndarray, K: np.ndarray) -> list[np.ndarray]:
        """Analytic ``dK/dtheta_j`` matrices (log-space), one per parameter.

        ``K`` must be the matrix :meth:`eval_state` returned for ``state``
        under the current hyperparameters (most gradients reuse it).
        """

    @abc.abstractmethod
    def eval_and_gradient_state(
        self, state: np.ndarray, workspace: dict | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Covariance matrix and its gradients in one pass.

        Equal to :meth:`eval_state` followed by :meth:`gradient_state`, with
        the shared intermediates (e.g. the Matern exponential) computed
        once.  ``workspace`` is an optional kernel-owned scratch dict a
        tight caller (the likelihood optimizer) passes to let the kernel
        reuse output buffers across calls; the returned arrays are then
        only valid until the next call with the same workspace.
        """

    @abc.abstractmethod
    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        """Diagonal of the covariance matrix of ``pi`` with itself."""

    def __call__(self, X1, X2) -> np.ndarray:
        """Covariance matrix between row-sets ``X1`` (n1,d) and ``X2`` (n2,d)."""
        return self.eval_state(
            self.cross_state(self.precompute_input(X1), self.precompute_input(X2))
        )


class Matern52(Kernel):
    """Matern kernel with smoothness nu = 5/2 (Ribbon's surrogate kernel).

    .. math::

       k(r) = \\sigma^2 (1 + \\sqrt{5} r / \\ell + 5 r^2 / (3 \\ell^2))
              \\exp(-\\sqrt{5} r / \\ell)
    """

    def __init__(self, length_scale: float = 1.0, variance: float = 1.0):
        if length_scale <= 0 or variance <= 0:
            raise ValueError("length_scale and variance must be positive")
        self.length_scale = float(length_scale)
        self.variance = float(variance)

    def precompute_input(self, X) -> PreparedInput:
        arr = _as_2d(X)
        return PreparedInput(arr, np.sum(arr**2, axis=1))

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput) -> np.ndarray:
        # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b from the cached norms.  The
        # state is sqrt(d^2 + eps): theta-independent, so the O(n^2) sqrt is
        # paid once per fit rather than once per likelihood step.
        d2 = pi1.sq[:, None] + pi2.sq[None, :] - 2.0 * pi1.x @ pi2.x.T
        return np.sqrt(np.maximum(d2, 0.0) + _JITTER_EPS)

    def eval_state(self, r0: np.ndarray) -> np.ndarray:
        r = r0 / self.length_scale
        sqrt5_r = _SQRT5 * r
        return self.variance * (1.0 + sqrt5_r + 5.0 * r**2 / 3.0) * np.exp(-sqrt5_r)

    def gradient_state(self, r0: np.ndarray, K: np.ndarray) -> list[np.ndarray]:
        # With u = sqrt(5) r / l:  k = v (1 + u + u^2/3) e^-u, and
        # dk/d(log l) = v u^2 (1 + u) / 3 e^-u;  dk/d(log v) = k.
        u = _SQRT5 * (r0 / self.length_scale)
        d_log_l = self.variance * (u**2 * (1.0 + u) / 3.0) * np.exp(-u)
        return [d_log_l, K]

    def eval_and_gradient_state(
        self, r0: np.ndarray, workspace: dict | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        if workspace is None:
            r = r0 / self.length_scale
            sqrt5_r = _SQRT5 * r
            E = np.exp(-sqrt5_r)
            one_plus_u = 1.0 + sqrt5_r
            K = self.variance * (one_plus_u + 5.0 * r**2 / 3.0) * E
            d_log_l = self.variance * (sqrt5_r**2 * one_plus_u / 3.0) * E
            return K, [d_log_l, K]
        # Buffer-reusing variant: the same floats as the branch above, with
        # every output written into workspace-owned arrays.  It carries
        # nu = -u instead of u, exactly: (-sqrt5) r == -(sqrt5 r),
        # 1 - nu == 1 + u and nu^2 == u^2 in IEEE arithmetic, which saves
        # the separate negation.
        ws = workspace
        if ws.get("shape") != r0.shape:
            ws.clear()
            ws["shape"] = r0.shape
            for name in ("r", "nu", "E", "one", "t", "K", "G"):
                ws[name] = np.empty(r0.shape)
        r = np.divide(r0, self.length_scale, out=ws["r"])
        nu = np.multiply(_NEG_SQRT5, r, out=ws["nu"])
        E = np.exp(nu, out=ws["E"])
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

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        r0 = np.sqrt(_JITTER_EPS) / self.length_scale
        val = self.variance * (1.0 + _SQRT5 * r0 + 5.0 * r0**2 / 3.0) * np.exp(
            -_SQRT5 * r0
        )
        return np.full(pi.n_rows, val)

    def get_theta(self) -> np.ndarray:
        return np.log([self.length_scale, self.variance])

    def set_theta(self, theta: np.ndarray) -> None:
        self.length_scale, self.variance = np.exp(np.asarray(theta, dtype=float))

    def theta_bounds(self) -> list[tuple[float, float]]:
        return [(np.log(1e-2), np.log(1e2)), (np.log(1e-4), np.log(1e2))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Matern52(length_scale={self.length_scale:.4g}, variance={self.variance:.4g})"


class RoundedKernel(Kernel):
    """Eq. 3 of the paper: ``k'(x_i, x_j) = k(R(x_i), R(x_j))``.

    ``R`` rounds every coordinate to the nearest integer *in the original
    (instance count) space*.  When the regressor normalizes inputs, pass the
    per-dimension ``scale`` so rounding still happens on integer counts:
    coordinates are de-normalized, rounded, and re-normalized.

    The wrapped GP is piecewise constant across integer cells, so (a) its
    mean matches the step-shaped true objective (Fig. 7b), and (b) the
    acquisition function is constant within a cell, which lets the optimizer
    skip already-sampled cells entirely.
    """

    def __init__(self, base: Kernel, scale: np.ndarray | float = 1.0):
        self.base = base
        self.scale = np.asarray(scale, dtype=float)
        if np.any(self.scale <= 0):
            raise ValueError("scale must be positive")

    def round_input(self, X) -> np.ndarray:
        """Apply R(.) in original units and map back to normalized units."""
        X = _as_2d(X)
        return np.rint(X * self.scale) / self.scale

    def precompute_input(self, X) -> PreparedInput:
        return self.base.precompute_input(self.round_input(X))

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput):
        return self.base.cross_state(pi1, pi2)

    def eval_state(self, state) -> np.ndarray:
        return self.base.eval_state(state)

    def gradient_state(self, state, K: np.ndarray) -> list[np.ndarray]:
        return self.base.gradient_state(state, K)

    def eval_and_gradient_state(
        self, state, workspace: dict | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        return self.base.eval_and_gradient_state(state, workspace)

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        return self.base._diag_prepared(pi)

    def get_theta(self) -> np.ndarray:
        return self.base.get_theta()

    def set_theta(self, theta: np.ndarray) -> None:
        self.base.set_theta(theta)

    def theta_bounds(self) -> list[tuple[float, float]]:
        return self.base.theta_bounds()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundedKernel({self.base!r})"
