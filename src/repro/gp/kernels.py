"""Covariance kernels.

Every kernel exposes its tunable hyperparameters as a flat log-space vector
(``theta``) so the regressor can optimize the marginal likelihood with an
unconstrained optimizer; bounds are carried per kernel.

The paper's choices and the reasoning reproduced here (Sec. 4):

* **Matern 5/2** — smooth but not infinitely differentiable; similar
  configurations get similar objective values without assuming an overly
  smooth objective.  Ribbon's surrogate kernel.
* **RBF** — infinitely smooth alternative.
* **Rational Quadratic / Dot Product** — assume particular polynomial /
  monotonic structure, which the paper argues is unsuitable; included for
  the ablation benchmarks.
* **RoundedKernel** (Eq. 3) — wraps any base kernel, rounding inputs to the
  nearest integer before evaluating, so the GP is constant within each
  integer cell of the configuration lattice.

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
  inputs (distance / Gram matrices);
* :meth:`Kernel.eval_state` / :meth:`Kernel.gradient_state` — covariance
  matrix and its analytic per-``theta`` gradients under the *current*
  hyperparameters.

``__call__`` routes through the same pipeline, so cached and uncached
evaluations are bit-identical by construction.  Kernels with
``has_analytic_gradient`` provide exact log-space gradients
(:meth:`Kernel.theta_gradient`); kernels without it still work — the
regressor falls back to finite differences for them.
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


def _sq_dists(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (n1, n2)."""
    # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b  (vectorized, no python loops)
    sq1 = np.sum(X1**2, axis=1)[:, None]
    sq2 = np.sum(X2**2, axis=1)[None, :]
    d2 = sq1 + sq2 - 2.0 * X1 @ X2.T
    return np.maximum(d2, 0.0)


class PreparedInput:
    """Theta-independent per-row data one kernel extracts from an input set.

    ``x`` holds the rows as the kernel sees them (e.g. rounded for
    :class:`RoundedKernel`), ``sq`` the cached per-row squared norms used by
    stationary kernels, and ``children`` the per-child prepared inputs of
    composite kernels.  Instances are produced by
    :meth:`Kernel.precompute_input` and are only meaningful for the kernel
    (structure) that built them.
    """

    __slots__ = ("x", "sq", "children")

    def __init__(
        self,
        x: np.ndarray,
        sq: np.ndarray | None = None,
        children: tuple["PreparedInput", ...] = (),
    ):
        self.x = x
        self.sq = sq
        self.children = children

    @property
    def n_rows(self) -> int:
        return int(self.x.shape[0])


def concat_prepared(a: PreparedInput, b: PreparedInput) -> PreparedInput:
    """Row-wise concatenation of two prepared inputs of the same kernel.

    Per-row data is independent across rows, so concatenation of prepared
    inputs equals preparation of concatenated inputs bit-for-bit.  Used by
    the incremental GP update to extend its training set in O(d) new work.
    """
    sq = None
    if a.sq is not None and b.sq is not None:
        sq = np.concatenate([a.sq, b.sq])
    children = tuple(
        concat_prepared(ca, cb) for ca, cb in zip(a.children, b.children)
    )
    return PreparedInput(np.vstack([a.x, b.x]), sq, children)


def take_prepared(pi: PreparedInput, idx: np.ndarray) -> PreparedInput:
    """Rows ``idx`` of a prepared input, as if only they had been prepared.

    The row-selection counterpart of :func:`concat_prepared`: per-row data
    is independent across rows, so selecting rows of every array (children
    included) equals preparing the selected inputs.  Used to score only the
    candidate cells of the cached lattice preparation.
    """
    sq = None if pi.sq is None else pi.sq[idx]
    children = tuple(take_prepared(c, idx) for c in pi.children)
    return PreparedInput(pi.x[idx], sq, children)


def _stationary_prepare(X) -> PreparedInput:
    arr = _as_2d(X)
    return PreparedInput(arr, np.sum(arr**2, axis=1))


def _stationary_cross(pi1: PreparedInput, pi2: PreparedInput) -> np.ndarray:
    """Squared distances from cached norms; same float ops as `_sq_dists`."""
    d2 = pi1.sq[:, None] + pi2.sq[None, :] - 2.0 * pi1.x @ pi2.x.T
    return np.maximum(d2, 0.0)


class Kernel(abc.ABC):
    """Base covariance function with log-space hyperparameter plumbing."""

    #: Whether :meth:`gradient_state` provides exact log-space gradients.
    has_analytic_gradient: bool = False

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
    def precompute_input(self, X) -> PreparedInput:
        """Theta-independent per-row data for one input set."""
        return PreparedInput(_as_2d(X))

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput):
        """Theta-independent pairwise structure between two prepared inputs."""
        return (pi1, pi2)

    def eval_state(self, state) -> np.ndarray:
        """Covariance matrix for a :meth:`cross_state` under current theta.

        Built-in kernels override this; legacy custom kernels that predate
        the prepared-state pipeline and implement ``__call__`` directly keep
        working through the delegation below.
        """
        if type(self).__call__ is not Kernel.__call__:
            pi1, pi2 = state
            return type(self).__call__(self, pi1.x, pi2.x)
        raise NotImplementedError(
            f"{type(self).__name__} must implement eval_state() "
            "(or the legacy __call__)"
        )

    def gradient_state(self, state, K: np.ndarray) -> list[np.ndarray]:
        """Analytic ``dK/dtheta_j`` matrices (log-space), one per parameter.

        ``K`` must be the matrix :meth:`eval_state` returned for ``state``
        under the current hyperparameters (most gradients reuse it).  Only
        kernels with ``has_analytic_gradient`` implement this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no analytic theta gradient"
        )

    def eval_and_gradient_state(
        self, state, workspace: dict | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Covariance matrix and its gradients in one pass.

        Kernels override this when value and gradients share expensive
        intermediates (e.g. the Matern exponential); the default composes
        :meth:`eval_state` and :meth:`gradient_state`.  ``workspace`` is an
        optional kernel-owned scratch dict a tight caller (the likelihood
        optimizer) passes to let the kernel reuse output buffers across
        calls; the returned arrays are then only valid until the next call
        with the same workspace.
        """
        K = self.eval_state(state)
        return K, self.gradient_state(state, K)

    # Plain-array conveniences ----------------------------------------------
    def __call__(self, X1, X2) -> np.ndarray:
        """Covariance matrix between row-sets ``X1`` (n1,d) and ``X2`` (n2,d)."""
        return self.eval_state(
            self.cross_state(self.precompute_input(X1), self.precompute_input(X2))
        )

    def theta_gradient(self, X1, X2) -> list[np.ndarray]:
        """Analytic log-space gradients ``dK/dtheta_j`` between two row-sets."""
        state = self.cross_state(
            self.precompute_input(X1), self.precompute_input(X2)
        )
        return self.gradient_state(state, self.eval_state(state))

    def diag(self, X) -> np.ndarray:
        """Diagonal of ``self(X, X)``; accepts an array or a prepared input."""
        pi = X if isinstance(X, PreparedInput) else self.precompute_input(X)
        return self._diag_prepared(pi)

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        return np.diag(self.eval_state(self.cross_state(pi, pi))).copy()

    # Composition -----------------------------------------------------------
    def __add__(self, other: "Kernel") -> "SumKernel":
        return SumKernel(self, other)

    def __mul__(self, scale: float) -> "ConstantScale":
        return ConstantScale(self, variance=float(scale))


class Matern52(Kernel):
    """Matern kernel with smoothness nu = 5/2 (Ribbon's surrogate kernel).

    .. math::

       k(r) = \\sigma^2 (1 + \\sqrt{5} r / \\ell + 5 r^2 / (3 \\ell^2))
              \\exp(-\\sqrt{5} r / \\ell)
    """

    has_analytic_gradient = True

    def __init__(self, length_scale: float = 1.0, variance: float = 1.0):
        if length_scale <= 0 or variance <= 0:
            raise ValueError("length_scale and variance must be positive")
        self.length_scale = float(length_scale)
        self.variance = float(variance)

    def precompute_input(self, X) -> PreparedInput:
        return _stationary_prepare(X)

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput) -> np.ndarray:
        # The state is sqrt(d^2 + eps): theta-independent, so the O(n^2)
        # sqrt is paid once per fit rather than once per likelihood step.
        return np.sqrt(_stationary_cross(pi1, pi2) + _JITTER_EPS)

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


class RBF(Kernel):
    """Squared-exponential kernel: ``sigma^2 exp(-r^2 / (2 l^2))``."""

    has_analytic_gradient = True

    def __init__(self, length_scale: float = 1.0, variance: float = 1.0):
        if length_scale <= 0 or variance <= 0:
            raise ValueError("length_scale and variance must be positive")
        self.length_scale = float(length_scale)
        self.variance = float(variance)

    def precompute_input(self, X) -> PreparedInput:
        return _stationary_prepare(X)

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput) -> np.ndarray:
        return _stationary_cross(pi1, pi2)

    def eval_state(self, d2: np.ndarray) -> np.ndarray:
        return self.variance * np.exp(-0.5 * d2 / self.length_scale**2)

    def gradient_state(self, d2: np.ndarray, K: np.ndarray) -> list[np.ndarray]:
        # dk/d(log l) = k d^2 / l^2;  dk/d(log v) = k.
        return [K * (d2 / self.length_scale**2), K]

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        return np.full(pi.n_rows, self.variance * np.exp(-0.0))

    def get_theta(self) -> np.ndarray:
        return np.log([self.length_scale, self.variance])

    def set_theta(self, theta: np.ndarray) -> None:
        self.length_scale, self.variance = np.exp(np.asarray(theta, dtype=float))

    def theta_bounds(self) -> list[tuple[float, float]]:
        return [(np.log(1e-2), np.log(1e2)), (np.log(1e-4), np.log(1e2))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RBF(length_scale={self.length_scale:.4g}, variance={self.variance:.4g})"


class RationalQuadratic(Kernel):
    """Rational quadratic kernel (scale mixture of RBFs).

    Included as a rejected-alternative for the kernel ablation: the paper
    argues it assumes a particular polynomial decay of covariance.
    """

    has_analytic_gradient = True

    def __init__(
        self, length_scale: float = 1.0, alpha: float = 1.0, variance: float = 1.0
    ):
        if length_scale <= 0 or alpha <= 0 or variance <= 0:
            raise ValueError("all hyperparameters must be positive")
        self.length_scale = float(length_scale)
        self.alpha = float(alpha)
        self.variance = float(variance)

    def precompute_input(self, X) -> PreparedInput:
        return _stationary_prepare(X)

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput) -> np.ndarray:
        return _stationary_cross(pi1, pi2)

    def eval_state(self, d2: np.ndarray) -> np.ndarray:
        return self.variance * (
            1.0 + d2 / (2.0 * self.alpha * self.length_scale**2)
        ) ** (-self.alpha)

    def gradient_state(self, d2: np.ndarray, K: np.ndarray) -> list[np.ndarray]:
        # With B = 1 + d^2 / (2 a l^2):  k = v B^-a, and
        # dk/d(log l) = v B^(-a-1) d^2 / l^2
        # dk/d(log a) = k (-a ln B + d^2 / (2 l^2 B))
        # dk/d(log v) = k
        l2 = self.length_scale**2
        B = 1.0 + d2 / (2.0 * self.alpha * l2)
        d_log_l = self.variance * B ** (-self.alpha - 1.0) * (d2 / l2)
        d_log_a = K * (-self.alpha * np.log(B) + d2 / (2.0 * l2 * B))
        return [d_log_l, d_log_a, K]

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        return np.full(pi.n_rows, self.variance * 1.0 ** (-self.alpha))

    def get_theta(self) -> np.ndarray:
        return np.log([self.length_scale, self.alpha, self.variance])

    def set_theta(self, theta: np.ndarray) -> None:
        self.length_scale, self.alpha, self.variance = np.exp(
            np.asarray(theta, dtype=float)
        )

    def theta_bounds(self) -> list[tuple[float, float]]:
        return [
            (np.log(1e-2), np.log(1e2)),
            (np.log(1e-2), np.log(1e2)),
            (np.log(1e-4), np.log(1e2)),
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RationalQuadratic(length_scale={self.length_scale:.4g}, "
            f"alpha={self.alpha:.4g}, variance={self.variance:.4g})"
        )


class DotProduct(Kernel):
    """Linear (dot product) kernel — assumes monotonic objectives.

    Included as a rejected-alternative for the kernel ablation.
    """

    has_analytic_gradient = True

    def __init__(self, sigma0: float = 1.0, variance: float = 1.0):
        if sigma0 < 0 or variance <= 0:
            raise ValueError("sigma0 must be >= 0 and variance > 0")
        self.sigma0 = float(sigma0)
        self.variance = float(variance)

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput) -> np.ndarray:
        return pi1.x @ pi2.x.T

    def eval_state(self, gram: np.ndarray) -> np.ndarray:
        return self.variance * (self.sigma0**2 + gram)

    def gradient_state(self, gram: np.ndarray, K: np.ndarray) -> list[np.ndarray]:
        # dk/d(log s0) = 2 v s0^2 (constant);  dk/d(log v) = k.
        d_log_s0 = np.full_like(K, 2.0 * self.variance * self.sigma0**2)
        return [d_log_s0, K]

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        return self.variance * (self.sigma0**2 + np.einsum("ij,ij->i", pi.x, pi.x))

    def get_theta(self) -> np.ndarray:
        return np.log([max(self.sigma0, 1e-8), self.variance])

    def set_theta(self, theta: np.ndarray) -> None:
        self.sigma0, self.variance = np.exp(np.asarray(theta, dtype=float))

    def theta_bounds(self) -> list[tuple[float, float]]:
        return [(np.log(1e-4), np.log(1e2)), (np.log(1e-4), np.log(1e2))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DotProduct(sigma0={self.sigma0:.4g}, variance={self.variance:.4g})"


class WhiteNoise(Kernel):
    """Independent observation noise: ``sigma_n^2 I`` on identical rows."""

    has_analytic_gradient = True

    def __init__(self, noise: float = 1e-6):
        if noise <= 0:
            raise ValueError("noise must be positive")
        self.noise = float(noise)

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput):
        same = pi1.x is pi2.x or (
            pi1.x.shape == pi2.x.shape and np.array_equal(pi1.x, pi2.x)
        )
        return (same, pi1.x.shape[0], pi2.x.shape[0])

    def eval_state(self, state) -> np.ndarray:
        same, n1, n2 = state
        if same:
            return self.noise * np.eye(n1)
        return np.zeros((n1, n2))

    def gradient_state(self, state, K: np.ndarray) -> list[np.ndarray]:
        return [K]  # d(noise I)/d(log noise) = noise I

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        return np.full(pi.n_rows, self.noise)

    def get_theta(self) -> np.ndarray:
        return np.log([self.noise])

    def set_theta(self, theta: np.ndarray) -> None:
        (self.noise,) = np.exp(np.asarray(theta, dtype=float))

    def theta_bounds(self) -> list[tuple[float, float]]:
        return [(np.log(1e-8), np.log(1e-1))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WhiteNoise(noise={self.noise:.4g})"


class ConstantScale(Kernel):
    """Multiplies a base kernel by a tunable variance factor."""

    def __init__(self, base: Kernel, variance: float = 1.0):
        if variance <= 0:
            raise ValueError("variance must be positive")
        self.base = base
        self.variance = float(variance)

    @property
    def has_analytic_gradient(self) -> bool:  # type: ignore[override]
        return self.base.has_analytic_gradient

    def precompute_input(self, X) -> PreparedInput:
        inner = self.base.precompute_input(X)
        return PreparedInput(inner.x, inner.sq, (inner,))

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput):
        return self.base.cross_state(pi1.children[0], pi2.children[0])

    def eval_state(self, state) -> np.ndarray:
        return self.variance * self.base.eval_state(state)

    def gradient_state(self, state, K: np.ndarray) -> list[np.ndarray]:
        base_K = self.base.eval_state(state)
        base_grads = self.base.gradient_state(state, base_K)
        return [K] + [self.variance * g for g in base_grads]

    def eval_and_gradient_state(
        self, state, workspace: dict | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        ws = None if workspace is None else workspace.setdefault("base", {})
        base_K, base_grads = self.base.eval_and_gradient_state(state, ws)
        K = self.variance * base_K
        return K, [K] + [self.variance * g for g in base_grads]

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        return self.variance * self.base._diag_prepared(pi.children[0])

    def get_theta(self) -> np.ndarray:
        return np.concatenate([[np.log(self.variance)], self.base.get_theta()])

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        self.variance = float(np.exp(theta[0]))
        self.base.set_theta(theta[1:])

    def theta_bounds(self) -> list[tuple[float, float]]:
        return [(np.log(1e-4), np.log(1e4))] + self.base.theta_bounds()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantScale({self.base!r}, variance={self.variance:.4g})"


class SumKernel(Kernel):
    """Sum of two kernels (e.g. signal kernel + white noise)."""

    def __init__(self, left: Kernel, right: Kernel):
        self.left = left
        self.right = right

    @property
    def has_analytic_gradient(self) -> bool:  # type: ignore[override]
        return self.left.has_analytic_gradient and self.right.has_analytic_gradient

    def precompute_input(self, X) -> PreparedInput:
        lpi = self.left.precompute_input(X)
        rpi = self.right.precompute_input(X)
        return PreparedInput(lpi.x, None, (lpi, rpi))

    def cross_state(self, pi1: PreparedInput, pi2: PreparedInput):
        return (
            self.left.cross_state(pi1.children[0], pi2.children[0]),
            self.right.cross_state(pi1.children[1], pi2.children[1]),
        )

    def eval_state(self, state) -> np.ndarray:
        return self.left.eval_state(state[0]) + self.right.eval_state(state[1])

    def gradient_state(self, state, K: np.ndarray) -> list[np.ndarray]:
        lk = self.left.eval_state(state[0])
        rk = self.right.eval_state(state[1])
        return self.left.gradient_state(state[0], lk) + self.right.gradient_state(
            state[1], rk
        )

    def eval_and_gradient_state(
        self, state, workspace: dict | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        lws = None if workspace is None else workspace.setdefault("left", {})
        rws = None if workspace is None else workspace.setdefault("right", {})
        lk, lg = self.left.eval_and_gradient_state(state[0], lws)
        rk, rg = self.right.eval_and_gradient_state(state[1], rws)
        return lk + rk, lg + rg

    def _diag_prepared(self, pi: PreparedInput) -> np.ndarray:
        return self.left._diag_prepared(pi.children[0]) + self.right._diag_prepared(
            pi.children[1]
        )

    def get_theta(self) -> np.ndarray:
        return np.concatenate([self.left.get_theta(), self.right.get_theta()])

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        nl = self.left.n_params
        self.left.set_theta(theta[:nl])
        self.right.set_theta(theta[nl:])

    def theta_bounds(self) -> list[tuple[float, float]]:
        return self.left.theta_bounds() + self.right.theta_bounds()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SumKernel({self.left!r}, {self.right!r})"


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

    @property
    def has_analytic_gradient(self) -> bool:  # type: ignore[override]
        return self.base.has_analytic_gradient

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
