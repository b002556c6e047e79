"""Active search-space pruning (Sec. 4, "Ribbon performs active pruning").

Two sound pruning rules derived from the structure of the problem:

1. **Dominance pruning.** If configuration :math:`x_c` violates the QoS by
   more than a threshold :math:`\\theta`, then any configuration
   :math:`x'_c \\le x_c` (component-wise) cannot meet the QoS either — it has
   no more capacity in any dimension.  All such configurations join the
   prune set ``P``.
2. **Cost pruning.**  Once a QoS-meeting configuration with cost :math:`c^*`
   is known, any configuration with cost :math:`\\ge c^*` is sub-optimal
   regardless of its QoS outcome (Eq. 2 scores it below the incumbent), so
   it never needs to be sampled.

The prune set is applied as a constraint on the acquisition maximizer: the
highest-acquisition configuration *not* in ``P`` is sampled next.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class PruneSet:
    """The set ``P`` of configurations excluded from future sampling."""

    def __init__(self, prices: Sequence[float]):
        self._prices = np.asarray(prices, dtype=float)
        if self._prices.ndim != 1 or self._prices.size == 0:
            raise ValueError("prices must be a non-empty 1-D sequence")
        # Ceilings: vectors whose entire dominated-below boxes are pruned,
        # and the same as int tuples (read on every acquisition step).
        self._ceilings: list[np.ndarray] = []
        self._ceiling_tuples: tuple[tuple[int, ...], ...] = ()
        # Cost threshold: configurations with cost >= threshold are pruned.
        self._cost_threshold = np.inf

    @property
    def n_dims(self) -> int:
        return self._prices.size

    @property
    def ceilings(self) -> tuple[tuple[int, ...], ...]:
        """Current dominance ceilings (maximal violating vectors)."""
        return self._ceiling_tuples

    @property
    def cost_threshold(self) -> float:
        """Configurations costing at least this much are pruned."""
        return self._cost_threshold

    # -- updates --------------------------------------------------------------
    def add_violator(self, counts: Sequence[int]) -> None:
        """Prune the dominated-below box of a strongly violating config."""
        vec = np.asarray(counts, dtype=np.int64)
        if vec.shape != (self.n_dims,):
            raise ValueError(f"expected {self.n_dims} dims, got shape {vec.shape}")
        # Keep only maximal ceilings: drop any existing ceiling dominated by
        # the new one; skip the new one if an existing ceiling dominates it.
        kept: list[np.ndarray] = []
        for c in self._ceilings:
            if np.all(vec <= c):
                return  # already covered
            if not np.all(c <= vec):
                kept.append(c)
        kept.append(vec)
        self._ceilings = kept
        self._ceiling_tuples = tuple(tuple(c.tolist()) for c in kept)

    def update_cost_threshold(self, cost: float) -> None:
        """Lower the cost threshold to the cost of a QoS-meeting incumbent."""
        if cost < 0:
            raise ValueError(f"cost must be non-negative, got {cost!r}")
        self._cost_threshold = min(self._cost_threshold, cost)

    # -- queries -----------------------------------------------------------------
    def contains(self, counts: Sequence[int]) -> bool:
        """Whether one configuration is pruned."""
        vec = np.asarray(counts, dtype=np.int64)
        if float(self._prices @ vec) >= self._cost_threshold:
            return True
        return any(np.all(vec <= c) for c in self._ceilings)

    def costs(self, grid: np.ndarray) -> np.ndarray:
        """Per-row hourly cost of an ``(m, n)`` grid, as :meth:`mask` prices it."""
        return np.asarray(grid) @ self._prices

    def mask(self, grid: np.ndarray) -> np.ndarray:
        """Boolean pruned-mask over an ``(m, n)`` grid (vectorized)."""
        grid = np.asarray(grid)
        if grid.ndim != 2 or grid.shape[1] != self.n_dims:
            raise ValueError(
                f"grid must be (m, {self.n_dims}), got shape {grid.shape}"
            )
        pruned = self.costs(grid) >= self._cost_threshold
        for c in self._ceilings:
            pruned |= np.all(grid <= c, axis=1)
        return pruned

    def n_pruned(self, grid: np.ndarray) -> int:
        """How many grid points are currently pruned."""
        return int(self.mask(grid).sum())
