"""Pool-cardinality sweep (Fig. 8).

For pool cardinalities 1..5, count (a) how many heterogeneous
configurations beat the best homogeneous configuration — QoS met at a lower
cost — and (b) the top cost saving, per model.  The paper uses this to fix
the diverse-pool cardinality at three: both curves saturate there.

Counting every under-the-cost-cap configuration exactly would need
thousands of simulations for 4-5 dimensional spaces, so the counter walks
the lattice in ascending cost order and counts a configuration
component-wise above a known QoS satisfier as a satisfier without
simulating it — the capacity-monotonicity assumption the paper's active
pruning also uses.  The rule is one boolean mask over the ordered
candidates, ORed with a box per simulated satisfier, so the walk reads one
entry per candidate instead of rescanning every earlier outcome.

The mirror rule (skip configurations below a known violator) would never
fire: prices are positive, so every such configuration costs less than
the violator — equal costs keep lattice order, which puts it first too —
and the ascending walk has already simulated it.

The one-shot simulations bypass the shared result memo: they are never
asked for again, and storing them would only evict entries that are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.experiments import ExperimentSetting
from repro.api.runner import ScenarioRunner
from repro.models.base import ModelProfile
from repro.models.zoo import get_model
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache

#: Instance families ordered by how early they join the growing pool, per
#: model category (the Table 3 pool first, then further catalog types).
CARDINALITY_ORDER: dict[str, tuple[str, ...]] = {
    "general": ("c5a", "m5", "t3", "m5n", "c5"),
    "recommendation": ("g4dn", "c5", "r5n", "t3", "m5"),
}


@dataclass(frozen=True)
class CardinalityPoint:
    """One (model, cardinality) cell of Fig. 8."""

    model: str
    n_types: int
    families: tuple[str, ...]
    n_better_configs: int
    best_saving_percent: float
    n_simulated: int


def _count_better_configs(
    model: ModelProfile,
    trace,
    families: tuple[str, ...],
    bounds: tuple[int, ...],
    homogeneous_cost: float,
    qos_target_ms: float,
    qos_rate_target: float,
) -> tuple[int, float, int]:
    """Count QoS-meeting configs cheaper than the homogeneous optimum."""
    sim = InferenceServingSimulator(
        model, result_cache=SimulationResultCache(maxsize=0)
    )
    grids = np.meshgrid(*[np.arange(b + 1) for b in bounds], indexing="ij")
    grid = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    grid = grid[grid.sum(axis=1) > 0]
    prices = np.asarray(
        [model.catalog[f].price_per_hour for f in families], dtype=float
    )
    costs = grid @ prices
    under_cap = costs < homogeneous_cost - 1e-9
    order = np.argsort(costs[under_cap], kind="stable")
    candidates = grid[under_cap][order]
    cand_costs = costs[under_cap][order]

    above_satisfier = np.zeros(len(candidates), dtype=bool)
    n_better = 0
    best_cost = np.inf
    n_sim = 0
    for i, (vec, cost) in enumerate(zip(candidates, cand_costs)):
        if above_satisfier[i]:
            n_better += 1  # inferred satisfier, cheaper than the baseline
            continue
        res = sim.simulate(trace, PoolConfiguration(families, tuple(int(v) for v in vec)))
        n_sim += 1
        if res.qos_satisfaction_rate(qos_target_ms) >= qos_rate_target:
            n_better += 1
            best_cost = min(best_cost, float(cost))
            above_satisfier |= np.all(vec <= candidates, axis=1)
    saving = (
        100.0 * (1.0 - best_cost / homogeneous_cost)
        if np.isfinite(best_cost)
        else 0.0
    )
    return n_better, saving, n_sim


def cardinality_sweep(
    model_name: str,
    max_types: int = 5,
    setting: ExperimentSetting = ExperimentSetting(n_queries=3000),
    *,
    bound_cap: int = 12,
) -> list[CardinalityPoint]:
    """Fig. 8 series for one model: cardinality 1..``max_types``."""
    model = get_model(model_name)
    order_key = (
        "recommendation"
        if model.homogeneous_family == "g4dn"
        else "general"
    )
    family_order = CARDINALITY_ORDER[order_key]
    homog = ScenarioRunner(setting.scenario(model_name)).homogeneous_optimum(
        seed=setting.seed
    )
    points: list[CardinalityPoint] = []
    for k in range(1, max_types + 1):
        families = family_order[:k]
        # One scenario per cardinality; its runner measures the bounds.
        mat = ScenarioRunner(
            setting.scenario(
                model_name, families=tuple(families), bound_cap=bound_cap
            )
        ).materialize(setting.seed)
        n_better, saving, n_sim = _count_better_configs(
            model,
            mat.trace,
            tuple(families),
            mat.space.bounds,
            homog.cost_per_hour,
            model.qos_target_ms,
            setting.qos_rate_target,
        )
        points.append(
            CardinalityPoint(
                model=model_name,
                n_types=k,
                families=tuple(families),
                n_better_configs=n_better,
                best_saving_percent=saving,
                n_simulated=n_sim,
            )
        )
    return points
