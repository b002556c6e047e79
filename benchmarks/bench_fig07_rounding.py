"""Fig. 7: the rounding mechanism on a 1-D integer objective.

Paper shape: the true objective is a step function over integer instance
counts.  A plain continuous-kernel GP interpolates smoothly between the
observations, mis-modelling the steps, and its acquisition can propose a
fractional point that rounds into an already-sampled integer cell.  With
the Eq. 3 rounded kernel the GP is piecewise constant per cell, matches the
true objective far better, and the next proposed sample always lands in an
unexplored cell.
"""

import numpy as np
from conftest import once, register_figure

from repro.analysis.reporting import series_table
from repro.gp.acquisition import expected_improvement
from repro.gp.kernels import Matern52
from repro.gp.regression import GaussianProcessRegressor

BOUND = 10  # instance counts 1..10, as in the figure

OBSERVED_N = np.array([1.0, 3.0, 5.0, 9.0, 10.0])


def true_objective(x_unit):
    """Step function: the objective of a fractional configuration is that
    of the integer cell it falls in (instance counts are categorical)."""
    n = np.clip(np.rint(np.asarray(x_unit, dtype=float) * BOUND), 1, BOUND)
    return 1.0 - np.abs(n - 7.0) / 10.0  # peak at 7 instances


def fit_and_score(use_rounding: bool):
    X = (OBSERVED_N / BOUND)[:, None]
    y = true_objective(X.ravel())
    kernel = Matern52(length_scale=0.25, scale=float(BOUND) if use_rounding else None)
    gp = GaussianProcessRegressor(kernel, noise=1e-6, optimize_hyperparameters=False)
    gp.fit(X, y)
    # Continuous acquisition domain: a fine grid across all cells.
    fine = np.linspace(0.55 / BOUND, (BOUND + 0.449) / BOUND, 400)[:, None]
    mean, std = gp.predict(fine, return_std=True)
    truth = true_objective(fine.ravel())
    mismatch = float(np.mean(np.abs(mean - truth)))
    ei = expected_improvement(mean, std, best_observed=float(y.max()))
    next_x = float(fine[np.argmax(ei), 0])
    next_cell = int(np.clip(np.rint(next_x * BOUND), 1, BOUND))
    return mean, truth, fine.ravel(), mismatch, next_cell


def test_fig07_rounding_mechanism(benchmark):
    default_out, rounded_out = once(
        benchmark, lambda: (fit_and_score(False), fit_and_score(True))
    )
    mean_d, truth, fine, mis_d, next_d = default_out
    mean_r, _, _, mis_r, next_r = rounded_out

    # Render a coarse sample of the curves (every 40th point).
    idx = np.arange(0, len(fine), 40)
    text = series_table(
        "x (instances)",
        [f"{fine[i] * BOUND:.2f}" for i in idx],
        {
            "true objective": [f"{truth[i]:.3f}" for i in idx],
            "GP mean (default)": [f"{mean_d[i]:.3f}" for i in idx],
            "GP mean (rounded)": [f"{mean_r[i]:.3f}" for i in idx],
        },
        title=(
            "Fig. 7 — rounding mechanism; "
            f"mean |GP - truth|: default={mis_d:.4f} rounded={mis_r:.4f}; "
            f"next sampled cell: default={next_d} rounded={next_r}"
        ),
    )
    register_figure("fig07_rounding", text)

    sampled_cells = set(OBSERVED_N.astype(int))
    # Paper shape: the rounded GP matches the step objective materially
    # better (~30% lower mean absolute error here)...
    assert mis_r < 0.8 * mis_d
    # ...and its acquisition proposes an unexplored integer cell.
    assert next_r not in sampled_cells
