"""Acquisition functions for Bayesian optimization (maximization form).

Ribbon uses **Expected Improvement** (Sec. 4): for each unexplored
configuration the GP mean and variance feed the closed-form expected
improvement over the incumbent best; maximizing it balances exploration
(high variance) and exploitation (high mean).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

_PDF_C = np.sqrt(2.0 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density — the exact float ops of ``norm.pdf``.

    ``scipy.stats.norm`` routes every call through the generic distribution
    machinery (argument broadcasting, support masks), which costs more than
    the EI arithmetic itself on BO-grid-sized inputs; ``ndtr`` +- this
    helper produce bit-identical values without the overhead.
    """
    return np.exp(-(z**2) / 2.0) / _PDF_C


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_observed: float,
    xi: float = 0.0,
) -> np.ndarray:
    """Closed-form EI for maximization.

    .. math::

       EI(x) = (\\mu - f^* - \\xi)\\,\\Phi(z) + \\sigma\\,\\phi(z),
       \\quad z = (\\mu - f^* - \\xi) / \\sigma

    Parameters
    ----------
    mean, std:
        GP posterior mean and standard deviation at candidate points.
    best_observed:
        Incumbent best objective value :math:`f^*`.
    xi:
        Optional exploration margin (0 reproduces the paper's plain EI).
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise ValueError(f"mean/std shape mismatch: {mean.shape} vs {std.shape}")
    if np.any(std < 0):
        raise ValueError("std must be non-negative")
    improve = mean - best_observed - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improve / std, 0.0)
        ei = np.where(
            std > 0,
            improve * ndtr(z) + std * _norm_pdf(z),
            np.maximum(improve, 0.0),
        )
    return np.maximum(ei, 0.0)


def probability_of_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best_observed: float,
    xi: float = 0.0,
) -> np.ndarray:
    """P(f(x) > f* + xi) under the GP posterior."""
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    if mean.shape != std.shape:
        raise ValueError(f"mean/std shape mismatch: {mean.shape} vs {std.shape}")
    improve = mean - best_observed - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improve / std, np.where(improve > 0, np.inf, -np.inf))
    return ndtr(z)


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, kappa: float = 2.0
) -> np.ndarray:
    """GP-UCB: ``mu + kappa * sigma``."""
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa!r}")
    return np.asarray(mean, dtype=float) + kappa * np.asarray(std, dtype=float)
