"""Gaussian process substrate, written from scratch.

Implements what Ribbon's BO engine runs (Sec. 4 of the paper):

* the Matern 5/2 covariance kernel (Ribbon's choice),
  :class:`~repro.gp.kernels.Matern52`; with ``scale=`` it applies the
  **rounding** of Eq. 3, ``k'(x_i, x_j) = k(R(x_i), R(x_j))``, which makes
  the GP piecewise constant across integer cells so the surrogate matches
  the categorical (integer instance count) true objective;
* exact GP regression via Cholesky factorization with log-marginal-
  likelihood hyperparameter fitting (L-BFGS-B with analytic kernel
  gradients from the current theta and one random start) and incremental
  rank-1 conditioning
  (:meth:`~repro.gp.regression.GaussianProcessRegressor.add_observation`);
* the Expected Improvement acquisition function;
* the acquisition step (:mod:`repro.gp.proposals`):
  :class:`~repro.gp.proposals.SequentialEI` takes the EI argmax of the
  paper's schedule, or a constant-liar q-EI batch per surrogate update,
  over the materialized lattice.
"""

from repro.gp.kernels import Matern52, PreparedInput
from repro.gp.regression import GaussianProcessRegressor
from repro.gp.proposals import AcquisitionContext, SequentialEI
from repro.gp.acquisition import expected_improvement

__all__ = [
    "PreparedInput",
    "Matern52",
    "GaussianProcessRegressor",
    "AcquisitionContext",
    "SequentialEI",
    "expected_improvement",
]
