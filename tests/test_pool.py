"""Unit + property tests for pool configurations and the lattice helpers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import PruneSet
from repro.simulator.pool import PoolConfiguration, grid_vectors


class TestConstruction:
    def test_basic(self):
        p = PoolConfiguration(("g4dn", "t3"), (3, 4))
        assert p.total_instances == 7
        assert (p.families, p.counts) == (("g4dn", "t3"), (3, 4))

    def test_homogeneous_helper(self):
        p = PoolConfiguration.homogeneous("g4dn", 5)
        assert p.families == ("g4dn",)
        assert p.counts == (5,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            PoolConfiguration(("g4dn",), (1, 2))

    def test_duplicate_families_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PoolConfiguration(("g4dn", "g4dn"), (1, 2))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            PoolConfiguration(("g4dn",), (-1,))

    def test_empty_family_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PoolConfiguration((), ())

    def test_zero_pool_allowed_but_flagged_empty(self):
        p = PoolConfiguration(("g4dn",), (0,))
        assert p.is_empty()


class TestViews:
    def test_str_rendering(self):
        assert str(PoolConfiguration(("g4dn", "t3"), (3, 4))) == "(3 g4dn + 4 t3)"

    def test_hourly_cost(self):
        p = PoolConfiguration(("g4dn", "t3"), (3, 4))
        assert p.hourly_cost() == pytest.approx(3 * 0.526 + 4 * 0.1664)


class TestDominance:
    """Component-wise dominance, as the Sec. 4 pruning rule applies it."""

    @staticmethod
    def dominates_or_equal(a, b):
        # A violator's ceiling prunes exactly the pools it dominates.
        prune = PruneSet((0.526, 0.1664))
        prune.add_violator(a)
        return prune.contains(b)

    def test_dominates_or_equal(self):
        assert self.dominates_or_equal((3, 4), (3, 2))
        assert self.dominates_or_equal((3, 4), (3, 4))
        assert not self.dominates_or_equal((3, 2), (3, 4))

    def test_incomparable_pair(self):
        assert not self.dominates_or_equal((3, 1), (1, 3))
        assert not self.dominates_or_equal((1, 3), (3, 1))


class TestNeighbors:
    def test_interior_point_has_2n_neighbors(self):
        p = PoolConfiguration(("g4dn", "t3"), (2, 3))
        assert len(p.neighbors(bounds=(5, 5))) == 4

    def test_bounds_respected(self):
        p = PoolConfiguration(("g4dn", "t3"), (5, 0))
        moves = {n.counts for n in p.neighbors(bounds=(5, 5))}
        assert moves == {(4, 0), (5, 1)}

    def test_all_zero_neighbor_excluded(self):
        p = PoolConfiguration(("g4dn",), (1,))
        moves = {n.counts for n in p.neighbors(bounds=(3,))}
        assert (0,) not in moves


class TestGrid:
    def test_grid_vectors_matches_enumerate(self):
        # Row-major over the bounds box, the all-zero row dropped.
        expected = [
            row for row in itertools.product(range(3), range(4)) if any(row)
        ]
        grid = grid_vectors((2, 3))
        assert grid.dtype == np.int64
        assert [tuple(int(v) for v in row) for row in grid] == expected

    def test_grid_excludes_zero(self):
        grid = grid_vectors((2, 2))
        assert not np.any(grid.sum(axis=1) == 0)

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_grid_covers_every_lattice_point(self, bounds):
        grid = grid_vectors(bounds)
        expected = int(np.prod([b + 1 for b in bounds])) - 1
        assert grid.shape[0] == expected
        # Every row unique and within bounds.
        assert len({tuple(r) for r in grid}) == expected
        assert np.all(grid >= 0)
        assert np.all(grid <= np.asarray(bounds))
