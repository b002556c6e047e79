"""Unit + property tests for the active prune set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import PruneSet
from repro.simulator.pool import grid_vectors

PRICES = (0.526, 0.1664)

vec2 = st.tuples(st.integers(0, 6), st.integers(0, 12))


class TestDominancePruning:
    def test_dominated_below_box_pruned(self):
        p = PruneSet(PRICES)
        p.add_violator((2, 4))
        assert p.contains((2, 4))
        assert p.contains((1, 4))
        assert p.contains((2, 3))
        assert p.contains((0, 0))

    def test_points_outside_box_not_pruned(self):
        p = PruneSet(PRICES)
        p.add_violator((2, 4))
        assert not p.contains((3, 4))
        assert not p.contains((2, 5))
        assert not p.contains((3, 0))

    def test_ceilings_kept_maximal(self):
        p = PruneSet(PRICES)
        p.add_violator((2, 4))
        p.add_violator((1, 2))  # dominated by (2,4): absorbed
        assert p.ceilings == ((2, 4),)
        p.add_violator((3, 5))  # dominates (2,4): replaces it
        assert p.ceilings == ((3, 5),)

    def test_incomparable_ceilings_coexist(self):
        p = PruneSet(PRICES)
        p.add_violator((4, 1))
        p.add_violator((1, 6))
        assert set(p.ceilings) == {(4, 1), (1, 6)}
        assert p.contains((1, 1))
        assert not p.contains((2, 5))

    def test_dimension_check(self):
        p = PruneSet(PRICES)
        with pytest.raises(ValueError):
            p.add_violator((1, 2, 3))


class TestCostPruning:
    def test_threshold_prunes_equal_or_more_expensive(self):
        p = PruneSet(PRICES)
        cost_34 = 3 * PRICES[0] + 4 * PRICES[1]
        p.update_cost_threshold(cost_34)
        assert p.contains((3, 4))  # equal cost cannot improve
        assert p.contains((5, 0))  # more expensive
        assert not p.contains((2, 4))  # cheaper

    def test_threshold_only_decreases(self):
        p = PruneSet(PRICES)
        p.update_cost_threshold(2.0)
        p.update_cost_threshold(3.0)
        assert p.cost_threshold == 2.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            PruneSet(PRICES).update_cost_threshold(-1.0)


class TestMask:
    def test_mask_matches_contains_pointwise(self):
        p = PruneSet(PRICES)
        p.add_violator((2, 4))
        p.add_violator((0, 9))
        p.update_cost_threshold(2.0)
        grid = grid_vectors((6, 12))
        mask = p.mask(grid)
        for vec, flag in zip(grid, mask):
            assert flag == p.contains(tuple(vec))

    def test_mask_shape_validation(self):
        p = PruneSet(PRICES)
        with pytest.raises(ValueError):
            p.mask(np.zeros((4, 3)))

    def test_n_pruned(self):
        p = PruneSet(PRICES)
        grid = grid_vectors((2, 2))
        assert p.n_pruned(grid) == 0
        p.add_violator((2, 2))
        assert p.n_pruned(grid) == len(grid)

    @given(
        violators=st.lists(vec2, min_size=0, max_size=5),
        threshold=st.floats(0.1, 5.0),
        probe=vec2,
    )
    @settings(max_examples=60, deadline=None)
    def test_soundness_property(self, violators, threshold, probe):
        """A pruned probe must be below some violator or at/above cost."""
        p = PruneSet(PRICES)
        for v in violators:
            p.add_violator(v)
        p.update_cost_threshold(threshold)
        probe_arr = np.asarray(probe)
        if p.contains(probe):
            below_violator = any(
                np.all(probe_arr <= np.asarray(v)) for v in violators
            )
            expensive = float(np.dot(PRICES, probe_arr)) >= threshold
            assert below_violator or expensive

    def test_invalid_prices_rejected(self):
        with pytest.raises(ValueError):
            PruneSet(())
