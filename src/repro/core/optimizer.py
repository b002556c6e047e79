"""Ribbon's Bayesian-optimization engine (Sec. 4).

One BO iteration:

1. fit a GP surrogate (Matern 5/2 with the Eq. 3 rounding, inputs
   normalized to the unit cube) to all objective observations;
2. compute Expected Improvement over every lattice configuration;
3. mask out configurations already sampled (the rounding kernel makes the
   acquisition constant within an integer cell, so re-sampling a cell can
   never help) and configurations in the active prune set ``P``;
4. evaluate the arg-max configuration, update the incumbent, the prune set
   (dominance boxes of strong violators + the cost threshold of the
   incumbent), and repeat.

The optimizer also accepts *pseudo-observations* — estimated objective
values injected as GP training data without costing evaluations — which is
how the load-adaptation warm start of Sec. 4 feeds its set-S estimates in.

The acquisition step is :class:`~repro.gp.proposals.SequentialEI`:
``batch_size=1`` (the default) is the paper's one-proposal-per-iteration
schedule, bit-for-bit; ``batch_size > 1`` proposes a constant-liar q-EI
batch per surrogate update and evaluates it through
:meth:`~repro.core.strategy.Budget.evaluate_batch`.  The lattice is
always materialized: :class:`~repro.core.search_space.SearchSpace`
refuses one above :data:`~repro.core.search_space.MAX_LATTICE_CELLS`
cells, far above a paper model's ~1 000.

Hot-path notes: the lattice, its unit-cube normalization, and the kernel's
theta-independent view of it (rounding + squared norms) are prepared once
per search and reused by every EI sweep; the GP is refit after every
sample with the analytic-gradient likelihood optimizer in
:mod:`repro.gp.regression`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.pruning import PruneSet
from repro.core.strategy import Budget, SearchStrategy
from repro.gp.kernels import Matern52
from repro.gp.proposals import AcquisitionContext, SequentialEI
from repro.simulator.pool import PoolConfiguration


@dataclass(frozen=True)
class PseudoObservation:
    """An estimated (not measured) objective value for warm starts."""

    counts: tuple[int, ...]
    objective: float


class RibbonOptimizer(SearchStrategy):
    """BO-based diverse-pool configuration search.

    Parameters
    ----------
    max_samples:
        Evaluation budget.
    seed:
        Seed for initial design and tie-breaking.
    n_initial:
        Configurations sampled before the first GP fit (the provided start
        point counts toward this).
    prune_threshold:
        The :math:`\\theta` of Sec. 4: a configuration violating the QoS
        rate target by more than this margin triggers dominance pruning.
    patience:
        Stop after this many consecutive samples without improving the
        incumbent once a QoS-meeting configuration is known.  ``None``
        disables early stopping.
    use_rounding:
        Apply the Eq. 3 rounding kernel (the ablation flag of Fig. 7).
    use_pruning:
        Apply active pruning (ablation flag).
    batch_size:
        Proposals per BO iteration.  ``1`` (the default) is the paper's
        sequential schedule.  Larger values propose a constant-liar q-EI
        batch per surrogate update and evaluate it in one
        :meth:`Budget.evaluate_batch` call — amortizing the GP refit and
        the candidate predict over the batch.
    """

    name = "RIBBON"

    def __init__(
        self,
        max_samples: int = 60,
        seed: int = 0,
        *,
        n_initial: int = 3,
        prune_threshold: float = 0.01,
        patience: int | None = 10,
        use_rounding: bool = True,
        use_pruning: bool = True,
        pseudo_observations: Sequence[PseudoObservation] = (),
        prune_seed: Sequence[tuple[int, ...]] = (),
        batch_size: int = 1,
    ):
        super().__init__(max_samples=max_samples, seed=seed)
        if n_initial < 1:
            raise ValueError(f"n_initial must be >= 1, got {n_initial!r}")
        if prune_threshold < 0:
            raise ValueError("prune_threshold must be non-negative")
        if patience is not None and patience < 1:
            raise ValueError("patience must be >= 1 or None")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        self.n_initial = int(n_initial)
        self.batch_size = int(batch_size)
        self.prune_threshold = float(prune_threshold)
        self.patience = patience
        self.use_rounding = bool(use_rounding)
        self.use_pruning = bool(use_pruning)
        self.pseudo_observations = tuple(pseudo_observations)
        self.prune_seed = tuple(prune_seed)
        #: Prune set of the last run (exposed for warm-start transfer).
        self.prune_set: PruneSet | None = None

    # -- main loop -------------------------------------------------------------
    def _run(
        self,
        evaluator: ConfigurationEvaluator,
        budget: Budget,
        start: PoolConfiguration | None,
    ) -> None:
        space = evaluator.space
        objective = evaluator.objective
        rng = np.random.default_rng(self.seed)
        prune = PruneSet(space.prices)
        if self.use_pruning:
            for counts in self.prune_seed:
                prune.add_violator(counts)
        self.prune_set = prune

        # Matern 5/2; unless ablated, scale maps the unit-cube inputs back
        # to integer counts for the Eq. 3 rounding.
        scale = space.bounds if self.use_rounding else None
        ctx = AcquisitionContext(
            space,
            rng=rng,
            make_kernel=lambda: Matern52(0.3, 1.0, scale=scale),
            prune=prune if self.use_pruning else None,
        )
        for pseudo in self.pseudo_observations:
            ctx.add_pseudo_observation(pseudo.counts, pseudo.objective)
        engine = SequentialEI()

        def learn(pool: PoolConfiguration, rec) -> None:
            """Feed one evaluation into the surrogate data and pruning."""
            ctx.observe(pool.counts, rec.objective)
            if self.use_pruning:
                if rec.meets_qos:
                    prune.update_cost_threshold(rec.cost_per_hour)
                elif (
                    rec.qos_rate
                    < objective.qos_rate_target - self.prune_threshold
                ):
                    prune.add_violator(pool.counts)

        def record_sample(pool: PoolConfiguration) -> bool:
            """Evaluate, learn, and update pruning; False when out of budget."""
            rec = budget.evaluate(pool)
            if rec is None:
                return False
            learn(pool, rec)
            return True

        # Loop/prune statistics in the finally below: every exit path — the
        # early returns out of the initial design included — reports the
        # full metadata set.
        n_batches = 0
        try:
            # ---- initial design ---------------------------------------------
            if start is None:
                mid = tuple(max(1, round(b / 2)) for b in space.bounds)
                start = space.pool(mid)
            if not space.contains(start):
                raise ValueError(f"start {start} outside search space {space}")
            if not record_sample(start):
                return
            # The random design flows through the same Budget.evaluate_batch
            # path as the BO loop, so batch_size > 1 amortizes it too.  At
            # batch_size=1 each batch
            # holds one candidate, replaying the sequential draw/evaluate/
            # learn interleaving — and hence the RNG stream — bit-for-bit.
            n_init = min(self.n_initial, self.max_samples)
            while budget.n_samples < n_init:
                drawn: list[int] = []
                while (
                    len(drawn) < self.batch_size
                    and budget.n_samples + len(drawn) < n_init
                ):
                    cand = ctx.random_unsampled()
                    if cand is None:
                        break
                    # Pre-mark the cell so the batch's next draw cannot
                    # repeat it (sequentially, observe() did the marking).
                    ctx.mark_sampled(cand)
                    drawn.append(cand)
                if not drawn:
                    return
                init_pools = [space.pool(space.counts_at(i)) for i in drawn]
                init_records = budget.evaluate_batch(init_pools)
                for pool, rec in zip(init_pools, init_records):
                    if rec is None:
                        return
                    learn(pool, rec)

            # ---- BO loop -----------------------------------------------------
            stale = 0
            best_cost = np.inf
            incumbent = budget.best_satisfying()
            if incumbent is not None:
                best_cost = incumbent.cost_per_hour
            while not budget.exhausted:
                proposals = engine.propose(
                    ctx, min(self.batch_size, budget.remaining)
                )
                if not proposals:
                    budget.stopped = True
                    break
                n_batches += 1
                pools = [space.pool(space.counts_at(i)) for i in proposals]
                records = budget.evaluate_batch(pools)
                hit_budget = False
                patience_hit = False
                for pool, rec in zip(pools, records):
                    if rec is None:
                        hit_budget = True
                        break
                    learn(pool, rec)
                    if rec.meets_qos and rec.cost_per_hour < best_cost - 1e-12:
                        best_cost = rec.cost_per_hour
                        stale = 0
                    else:
                        stale += 1
                    if (
                        self.patience is not None
                        and np.isfinite(best_cost)
                        and stale >= self.patience
                    ):
                        patience_hit = True
                if hit_budget:
                    break
                if patience_hit:
                    budget.stopped = True
                    break
        finally:
            budget.metadata["n_pruned_final"] = prune.n_pruned(space.grid())
            budget.metadata["cost_threshold"] = prune.cost_threshold
            budget.metadata["proposal_batches"] = n_batches
