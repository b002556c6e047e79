"""The discrete configuration search space.

A :class:`SearchSpace` is the lattice :math:`\\{0..m_1\\} \\times ... \\times
\\{0..m_n\\}` (minus the empty pool) over an ordered tuple of instance
families.  The per-type upper bound :math:`m_i` is defined by the paper as
the count beyond which adding more instances of type *i* stops improving the
QoS satisfaction rate; :func:`estimate_instance_bounds` measures it by
simulation exactly that way.

Every strategy materializes its lattice as one ``(m, n)`` integer grid, so
a space above :data:`MAX_LATTICE_CELLS` cells is refused at construction:
the cap is one check in front of every search, whether the bounds are
explicit or measured.  A paper model's default lattice has 419–1 511
cells (trace seeds 0–2), and a 5-family space of Fig. 8 at most 113 255.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.models.base import ModelProfile
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration, grid_vectors
from repro.workload.trace import QueryTrace

#: The largest lattice a :class:`SearchSpace` may span, in cells.
MAX_LATTICE_CELLS = 200_000


def check_lattice_size(bounds: Sequence[int]) -> None:
    """Raise ``ValueError`` if the lattice over ``bounds`` exceeds the cap.

    The lattice is ``{0..b_1} x ... x {0..b_n}`` minus the empty pool.
    """
    cells = math.prod(int(b) + 1 for b in bounds) - 1
    if cells > MAX_LATTICE_CELLS:
        raise ValueError(
            f"search space with bounds {tuple(bounds)} has {cells} cells, "
            f"above the cap of {MAX_LATTICE_CELLS}"
        )


@dataclass(frozen=True)
class SearchSpace:
    """Ordered instance families with per-type count bounds.

    The family order is semantic (FCFS dispatch preference and the
    "increasing order along each dimension" smoothness arrangement of
    Sec. 4).  A lattice above :data:`MAX_LATTICE_CELLS` cells raises
    ``ValueError``.
    """

    families: tuple[str, ...]
    bounds: tuple[int, ...]
    catalog: InstanceCatalog = field(
        default_factory=lambda: DEFAULT_CATALOG, compare=False
    )

    def __post_init__(self) -> None:
        fams = tuple(self.families)
        bnds = tuple(int(b) for b in self.bounds)
        if len(fams) != len(bnds):
            raise ValueError("families/bounds length mismatch")
        if not fams:
            raise ValueError("search space needs at least one family")
        if len(set(fams)) != len(fams):
            raise ValueError(f"duplicate families: {fams}")
        if any(b < 1 for b in bnds):
            raise ValueError(f"each bound must be >= 1, got {bnds}")
        check_lattice_size(bnds)
        for f in fams:
            self.catalog[f]  # validate existence
        object.__setattr__(self, "families", fams)
        object.__setattr__(self, "bounds", bnds)

    # -- geometry -------------------------------------------------------------
    @property
    def n_dims(self) -> int:
        return len(self.families)

    @property
    def n_configurations(self) -> int:
        """Number of lattice points excluding the empty pool."""
        total = 1
        for b in self.bounds:
            total *= b + 1
        return total - 1

    def grid(self) -> np.ndarray:
        """All configurations as an ``(m, n)`` integer array.

        Built once per space and cached read-only: the lattice is consulted
        on every optimizer iteration and in cost accounting, and rebuilding
        it (meshgrid + filter) on each call showed up in search profiles.
        """
        cached = self.__dict__.get("_grid")
        if cached is None:
            cached = grid_vectors(self.bounds)
            cached.flags.writeable = False
            object.__setattr__(self, "_grid", cached)
        return cached

    def grid_unit(self) -> np.ndarray:
        """The grid normalized to the unit cube (GP input space), cached."""
        cached = self.__dict__.get("_grid_unit")
        if cached is None:
            cached = self.normalize(self.grid())
            cached.flags.writeable = False
            object.__setattr__(self, "_grid_unit", cached)
        return cached

    def index_of(self, vector: Sequence[int]) -> int | None:
        """Grid-row index of a lattice vector, or ``None`` if off-lattice.

        Closed form (row-major ravel over the bounds box, minus the
        excluded all-zero cell) — no grid materialization, no index dict.
        ``None`` covers the all-zero vector, out-of-bounds counts, and
        dimension mismatches, mirroring a dict ``.get`` miss.
        """
        vec = tuple(int(v) for v in vector)
        if len(vec) != self.n_dims:
            return None
        idx = 0
        for v, b in zip(vec, self.bounds):
            if v < 0 or v > b:
                return None
            idx = idx * (b + 1) + v
        return idx - 1 if idx > 0 else None

    def pool(self, vector: Sequence[int]) -> PoolConfiguration:
        """Lattice vector -> :class:`PoolConfiguration`."""
        vec = tuple(int(v) for v in vector)
        if len(vec) != self.n_dims:
            raise ValueError(f"vector has {len(vec)} dims, space has {self.n_dims}")
        if any(v < 0 or v > b for v, b in zip(vec, self.bounds)):
            raise ValueError(f"vector {vec} outside bounds {self.bounds}")
        return PoolConfiguration(self.families, vec)

    def contains(self, pool: PoolConfiguration) -> bool:
        """Whether a pool lies inside the lattice (families must match)."""
        if pool.families != self.families:
            return False
        return all(0 <= c <= b for c, b in zip(pool.counts, self.bounds))

    # -- normalization (GP inputs) ---------------------------------------------
    def normalize(self, vectors: np.ndarray) -> np.ndarray:
        """Map integer counts to ``[0, 1]`` per dimension (GP input space)."""
        arr = np.asarray(vectors, dtype=float)
        return arr / np.asarray(self.bounds, dtype=float)

    # -- cost -------------------------------------------------------------------
    @property
    def prices(self) -> np.ndarray:
        """Hourly price per dimension (the :math:`p_i` of Eq. 2), cached."""
        cached = self.__dict__.get("_prices")
        if cached is None:
            cached = np.asarray(
                [self.catalog[f].price_per_hour for f in self.families],
                dtype=float,
            )
            cached.flags.writeable = False
            object.__setattr__(self, "_prices", cached)
        return cached

    @property
    def max_cost(self) -> float:
        """Cost of the all-max pool (the :math:`\\sum p_i m_i` of Eq. 2)."""
        return float(self.prices @ np.asarray(self.bounds, dtype=float))

    def cost(self, vector: Sequence[int]) -> float:
        """Hourly cost of a lattice vector."""
        return float(self.prices @ np.asarray(vector, dtype=float))

    @property
    def total_lattice_cost(self) -> float:
        """Sum of hourly costs over every lattice cell, in closed form.

        Per dimension ``i`` the count ``v_i`` sums to
        ``b_i (b_i + 1) / 2`` over ``0..b_i`` and appears once for each of
        the other dimensions' combinations; the excluded all-zero cell
        contributes nothing.  Exhaustive-deployment accounting
        (``exhaustive_cost_dollars``) reads this value; a grid sum
        ``(grid @ prices).sum()`` adds in another order and would move that
        scalar in its last bits on multi-family spaces, so the closed form
        stays.  The bit-identity contract covers sample sequences and
        per-record results; the two forms agree to float roundoff.
        """
        n_box = 1
        for b in self.bounds:
            n_box *= b + 1
        total = 0.0
        for price, b in zip(self.prices, self.bounds):
            total += price * (b * (b + 1) / 2.0) * (n_box // (b + 1))
        return float(total)

    def counts_at(self, index: int) -> tuple[int, ...]:
        """Lattice vector at a grid-row index (inverse of :meth:`index_of`)."""
        if not 0 <= index < self.n_configurations:
            raise IndexError(
                f"grid index {index} out of range for {self.n_configurations} "
                "configurations"
            )
        dims = tuple(b + 1 for b in self.bounds)
        return tuple(int(c) for c in np.unravel_index(index + 1, dims))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = ", ".join(f"{f}<= {b}" for f, b in zip(self.families, self.bounds))
        return f"SearchSpace({dims}; {self.n_configurations} configs)"


def estimate_instance_bounds(
    model: ModelProfile,
    trace: QueryTrace,
    families: Sequence[str],
    *,
    qos_target_ms: float | None = None,
    saturation_eps: float = 1e-3,
    hard_cap: int = 16,
    catalog: InstanceCatalog = DEFAULT_CATALOG,
    simulator: InferenceServingSimulator | None = None,
) -> SearchSpace:
    """Measure the paper's per-type upper bound :math:`m_i` by simulation.

    For each family, the QoS satisfaction rate of a growing homogeneous pool
    rises until queueing is eliminated and then plateaus (service-time
    violations cannot be fixed by adding instances): "when serving with u
    instances the rate is 95% and stays 95% with u+1, then m_i = u".
    :math:`m_i` is the smallest count reaching that plateau (within
    ``saturation_eps``), capped at ``hard_cap``.

    The rate is non-decreasing in the count (a homogeneous pool's service
    times do not depend on the instance, and an extra FCFS server never
    delays a start), so the plateau is the rate at ``hard_cap`` and the
    bound is bisected over ``1..hard_cap``: at most
    ``1 + ceil(log2(hard_cap))`` simulations per family, run on
    ``simulator`` (it must serve ``model``; by default a fresh one on the
    process-wide caches).

    Returns a ready :class:`SearchSpace` over ``families``.
    """
    if hard_cap < 1:
        raise ValueError(f"hard_cap must be >= 1, got {hard_cap!r}")
    target = qos_target_ms if qos_target_ms is not None else model.qos_target_ms
    if simulator is None:
        simulator = InferenceServingSimulator(model)
    elif simulator.model is not model:
        raise ValueError(f"simulator serves {simulator.model.name!r}, not {model.name!r}")

    def rate(fam: str, count: int) -> float:
        pool = PoolConfiguration.homogeneous(fam, count)
        return simulator.simulate(trace, pool).qos_satisfaction_rate(target)

    bounds: list[int] = []
    for fam in families:
        floor = rate(fam, hard_cap) - saturation_eps
        lo, hi = 1, hard_cap  # rate(hi) >= floor throughout
        while lo < hi:
            mid = (lo + hi) // 2
            if rate(fam, mid) >= floor:
                hi = mid
            else:
                lo = mid + 1
        bounds.append(lo)
    return SearchSpace(tuple(families), tuple(bounds), catalog)
