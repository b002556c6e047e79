"""The acquisition function of Ribbon's Bayesian optimization (maximization form).

Ribbon uses **Expected Improvement** (Sec. 4): for each unexplored
configuration the GP mean and variance feed the closed-form expected
improvement over the incumbent best; maximizing it balances exploration
(high variance) and exploitation (high mean).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.gp.kernels import _libm_exp

_PDF_C = np.sqrt(2.0 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density: the float ops of ``norm.pdf``, with libm's
    ``exp`` as the compiled scorer (``gp/_lml.c``) takes it.

    ``scipy.stats.norm`` routes every call through the generic distribution
    machinery (argument broadcasting, support masks), which costs more than
    the EI arithmetic itself on BO-grid-sized inputs.
    """
    return _libm_exp(-(z**2) / 2.0) / _PDF_C


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_observed: float,
) -> np.ndarray:
    """Closed-form EI for maximization.

    .. math::

       EI(x) = (\\mu - f^*)\\,\\Phi(z) + \\sigma\\,\\phi(z),
       \\quad z = (\\mu - f^*) / \\sigma

    Parameters
    ----------
    mean, std:
        GP posterior mean and standard deviation at candidate points.
    best_observed:
        Incumbent best objective value :math:`f^*`.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise ValueError(f"mean/std shape mismatch: {mean.shape} vs {std.shape}")
    if np.any(std < 0):
        raise ValueError("std must be non-negative")
    improve = mean - best_observed
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improve / std, 0.0)
        ei = np.where(
            std > 0,
            improve * ndtr(z) + std * _norm_pdf(z),
            np.maximum(improve, 0.0),
        )
    return np.maximum(ei, 0.0)
