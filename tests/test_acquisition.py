"""Unit + property tests for acquisition functions."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp.acquisition import expected_improvement
from repro.gp.kernels import Matern52, take_prepared
from repro.gp.proposals import _candidate_argmax, _draw
from repro.gp.regression import GaussianProcessRegressor
from repro.simulator.pool import grid_vectors

floats = st.floats(-5.0, 5.0, allow_nan=False)
pos_floats = st.floats(0.0, 5.0, allow_nan=False)


class TestExpectedImprovement:
    def test_zero_std_reduces_to_plain_improvement(self):
        ei = expected_improvement(np.array([1.0, -1.0]), np.array([0.0, 0.0]), 0.0)
        np.testing.assert_allclose(ei, [1.0, 0.0])

    def test_known_value_at_zero_improvement(self):
        # mean == best, sigma = 1: EI = phi(0) = 1/sqrt(2 pi).
        ei = expected_improvement(np.array([0.0]), np.array([1.0]), 0.0)
        assert ei[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi))

    def test_monotonic_in_mean(self):
        ei = expected_improvement(np.array([0.0, 0.5, 1.0]), np.ones(3), 0.0)
        assert ei[0] < ei[1] < ei[2]

    def test_monotonic_in_std_when_below_best(self):
        ei = expected_improvement(np.full(3, -1.0), np.array([0.1, 1.0, 3.0]), 0.0)
        assert ei[0] < ei[1] < ei[2]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(2), np.zeros(3), 0.0)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            expected_improvement(np.zeros(1), np.array([-1.0]), 0.0)

    @given(
        mean=st.lists(floats, min_size=1, max_size=10),
        best=floats,
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_everywhere(self, mean, best):
        mean = np.asarray(mean)
        std = np.abs(mean) * 0.3 + 0.1
        ei = expected_improvement(mean, std, best)
        assert np.all(ei >= 0.0)

    @given(mean=floats, std=st.floats(0.01, 5.0), best=floats)
    @settings(max_examples=50, deadline=None)
    def test_ei_at_least_plain_improvement(self, mean, std, best):
        # EI >= max(mu - f*, 0) for any sigma (Jensen).
        ei = expected_improvement(np.array([mean]), np.array([std]), best)
        assert ei[0] >= max(mean - best, 0.0) - 1e-9

    def test_ndtr_is_norm_cdf_bit_for_bit(self):
        # EI calls ndtr(z) instead of norm.cdf(z); the standard normal
        # cdf is ndtr, so the swap must not move a single bit.
        from scipy.special import ndtr
        from scipy.stats import norm

        z = np.concatenate(
            [
                np.linspace(-40.0, 40.0, 4001),
                np.geomspace(1e-300, 1e3, 500) * np.array([[-1.0], [1.0]]),
                [0.0, -0.0, np.inf, -np.inf, np.nan],
            ],
            axis=None,
        )
        np.testing.assert_array_equal(
            ndtr(z).view(np.int64), norm.cdf(z).view(np.int64)
        )


@pytest.mark.parametrize("module", ["scipy.stats", "multiprocessing"])
def test_import_leaves_module_unloaded(module):
    """``scipy.stats`` and ``multiprocessing`` cost a share of a cold
    start; nothing on the package or CLI import path may pull them in."""
    code = (
        "import sys, repro, repro.cli; "
        f"sys.exit({module!r} in sys.modules)"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()


def _full_grid_argmax(ei, std, candidates, rng) -> int:
    """The masked whole-lattice argmax that candidate-only scoring replaces."""
    ei = np.where(candidates, ei, -np.inf)
    best = float(ei.max())
    if not np.isfinite(best) or best <= 0.0:
        score = np.where(candidates, std, -np.inf)
        return int(rng.choice(np.flatnonzero(score >= score.max() - 1e-15)))
    return int(rng.choice(np.flatnonzero(ei >= best * (1.0 - 1e-9))))


def _assert_same_prepared(a, b) -> None:
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.sq, b.sq)


class TestCandidateOnlyScoring:
    @pytest.mark.parametrize("seed", range(10))
    def test_candidate_rows_match_the_full_grid(self, seed):
        rng = np.random.default_rng(seed)
        bounds = rng.integers(2, 9, size=int(rng.integers(2, 5)))
        scale = bounds.astype(float)
        grid_unit = grid_vectors(bounds) / scale
        kernels = [
            Matern52(0.3, scale=scale),
            Matern52(0.2, 0.5),
            Matern52(0.6, 2.0, scale=scale),
            Matern52(1.5),
        ]
        for kernel in kernels:
            n = int(rng.integers(4, 25))
            X = grid_unit[rng.choice(grid_unit.shape[0], n, replace=False)]
            y = np.sin(3.0 * X @ rng.normal(size=X.shape[1]))
            gp = GaussianProcessRegressor(
                kernel, noise=1e-5, seed=seed
            ).fit(X, y)
            full = kernel.precompute_input(grid_unit)
            candidates = rng.random(grid_unit.shape[0]) < rng.uniform(0.05, 0.5)
            candidates[rng.integers(grid_unit.shape[0])] = True
            idx = np.flatnonzero(candidates)
            sub = take_prepared(full, idx)
            _assert_same_prepared(sub, kernel.precompute_input(grid_unit[idx]))

            # Each candidate row is computed on its own in one fixed order,
            # so a subset's rows are the whole lattice's, bit for bit.
            mean_f, std_f = gp.predict(full, return_std=True)
            mean_s, std_s = gp.predict(sub, return_std=True)
            np.testing.assert_array_equal(mean_s, mean_f[idx])
            np.testing.assert_array_equal(std_s, std_f[idx])
            # An informative incumbent and one no cell can beat (flat EI,
            # highest-std fallback) both pick the same cell.
            for best in (float(y.max()), float(y.max()) + 1e3):
                ei_f = expected_improvement(mean_f, std_f, best_observed=best)
                ei_s = expected_improvement(mean_s, std_s, best_observed=best)
                pick = _candidate_argmax(ei_s, std_s, np.random.default_rng(seed))
                assert idx[pick] == _full_grid_argmax(
                    ei_f, std_f, candidates, np.random.default_rng(seed)
                )


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 100, 1000, 2**20 + 3])
def test_draw_is_generator_choice(size):
    """The tie-break draw picks what ``rng.choice`` picks and leaves the
    generator in the same state, seed by seed."""
    values = np.arange(size) * 3 + 1
    for seed in range(200):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert _draw(values, ours) == theirs.choice(values)
        assert ours.bit_generator.state == theirs.bit_generator.state
