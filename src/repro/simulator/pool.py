"""Pool configurations: the decision variable of the whole system.

A :class:`PoolConfiguration` is the vector :math:`x = [x_1, ..., x_n]` of
Eq. 2 — how many instances of each type the pool holds — together with the
ordered tuple of instance families that defines both the search-space
dimensions and the FCFS dispatch preference order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog


@dataclass(frozen=True)
class PoolConfiguration:
    """An ordered heterogeneous pool of cloud instances.

    Parameters
    ----------
    families:
        Instance family per dimension, e.g. ``("g4dn", "t3")``.  The order is
        semantic: the FCFS dispatcher prefers earlier families when several
        instances are free (Table 3 order).
    counts:
        Number of instances per family; same length as ``families``.
    """

    families: tuple[str, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        fams = tuple(self.families)
        cnts = tuple(int(c) for c in self.counts)
        if len(fams) != len(cnts):
            raise ValueError(
                f"families/counts length mismatch: {len(fams)} vs {len(cnts)}"
            )
        if len(set(fams)) != len(fams):
            raise ValueError(f"duplicate families in pool: {fams}")
        if not fams:
            raise ValueError("pool must have at least one instance family")
        if any(c < 0 for c in cnts):
            raise ValueError(f"instance counts must be non-negative: {cnts}")
        object.__setattr__(self, "families", fams)
        object.__setattr__(self, "counts", cnts)

    # -- constructors ------------------------------------------------------
    @classmethod
    def homogeneous(cls, family: str, count: int) -> "PoolConfiguration":
        """A single-type pool (the baseline the paper improves upon)."""
        return cls((family,), (count,))

    # -- views -------------------------------------------------------------
    @property
    def total_instances(self) -> int:
        """Total number of instances across all types."""
        return sum(self.counts)

    def is_empty(self) -> bool:
        """True when the pool has no instances at all."""
        return self.total_instances == 0

    # -- cost ---------------------------------------------------------------
    def hourly_cost(self, catalog: InstanceCatalog = DEFAULT_CATALOG) -> float:
        """Total pool price in $/hour."""
        return float(
            sum(catalog[f].price_per_hour * c for f, c in zip(self.families, self.counts))
        )

    # -- neighbourhood (used by hill climbing) -------------------------------
    def neighbors(
        self, bounds: Sequence[int] | None = None
    ) -> list["PoolConfiguration"]:
        """All configurations one instance away (+-1 in one dimension).

        ``bounds`` caps each dimension; counts never go below zero, and the
        all-zero pool is excluded.
        """
        out: list[PoolConfiguration] = []
        for dim in range(len(self.counts)):
            for delta in (-1, +1):
                cnt = list(self.counts)
                cnt[dim] += delta
                if cnt[dim] < 0:
                    continue
                if bounds is not None and cnt[dim] > bounds[dim]:
                    continue
                if sum(cnt) == 0:
                    continue
                out.append(PoolConfiguration(self.families, tuple(cnt)))
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = " + ".join(f"{c} {f}" for f, c in zip(self.families, self.counts))
        return f"({inner})"


def grid_vectors(bounds: Sequence[int]) -> np.ndarray:
    """Integer grid as an ``(m, n)`` array (all-zero row excluded)."""
    grids = np.meshgrid(*[np.arange(b + 1) for b in bounds], indexing="ij")
    flat = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    return flat[flat.sum(axis=1) > 0]
