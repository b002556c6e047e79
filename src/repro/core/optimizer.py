"""Ribbon's Bayesian-optimization engine (Sec. 4).

One BO iteration:

1. fit a GP surrogate (Matern 5/2 under the Eq. 3 rounding wrapper, inputs
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

The acquisition/proposal step is pluggable (:mod:`repro.gp.proposals`):
the default :class:`~repro.gp.proposals.SequentialEI` engine reproduces
the paper's one-proposal-per-iteration schedule bit-for-bit, while
``batch_size > 1`` switches to the constant-liar q-EI engine — one
surrogate update and one full grid predict amortized over ``batch_size``
proposals, evaluated together through :meth:`~repro.core.strategy.Budget.
evaluate_batch` (optionally thread-parallel).  Large lattices (5+
families, ``10^6+`` cells) are swept block-by-block through
:meth:`~repro.core.search_space.SearchSpace.iter_grid` instead of being
materialized; the ``stream`` knob forces either regime.

Hot-path notes: the lattice, its unit-cube normalization, and the kernel's
theta-independent view of it (rounding + squared norms) are prepared once
per search and reused by every EI sweep; each GP refit runs the
analytic-gradient likelihood optimizer in :mod:`repro.gp.regression`.  With
``refit_period > 1`` the surrogate persists across iterations and absorbs
new samples through the incremental rank-1 ``add_observation`` update,
re-optimizing hyperparameters only every k-th sample — cheaper per
iteration, at the cost of no longer replaying the ``refit_period=1``
sample sequence bit-for-bit (hyperparameters then differ between
schedules).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.backends import resolve_backend
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.pruning import PruneSet
from repro.core.strategy import Budget, SearchStrategy
from repro.gp.kernels import Kernel, Matern52, RoundedKernel
from repro.gp.proposals import (
    AcquisitionContext,
    ProposalEngine,
    resolve_proposal_engine,
)
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
    kernel:
        Override the base kernel (default Matern 5/2, the paper's choice).
    refit_period:
        Re-optimize GP hyperparameters every this many samples.  ``1`` (the
        default) refits on every iteration — the paper's schedule, with a
        deterministic sample sequence per seed.  Larger values keep one
        surrogate alive and fold new samples in with the incremental rank-1
        Cholesky update between refits: same search contract, lower cost
        per iteration, but a (slightly) different sample sequence.
    batch_size:
        Proposals per BO iteration.  ``1`` (the default) is the paper's
        sequential schedule.  Larger values propose a q-point batch per
        surrogate update (constant-liar q-EI unless ``proposal_engine``
        overrides it) and evaluate it in one :meth:`Budget.evaluate_batch`
        call — amortizing the GP refit and grid predict over the batch and
        enabling thread-parallel simulation of the proposed pools.
    proposal_engine:
        The acquisition maximizer: an engine name (``"sequential-ei"``,
        ``"constant-liar-qei"``), a :class:`~repro.gp.proposals.
        ProposalEngine` instance, or ``None`` to pick the default for
        ``batch_size``.
    batch_parallel:
        Simulate the proposals of one batch in parallel on the selected
        evaluation backend (``batch_size > 1`` only).  Record order —
        and therefore the search result — is deterministic either way;
        simulations are bit-identical by the dispatch-loop and
        backend contracts.
    eval_backend:
        Where batch simulations execute: an
        :class:`~repro.core.backends.EvaluationBackend` instance or
        registry name (``"serial"``/``"thread"``/``"process"``); None
        (default) defers to the evaluator's configured backend, falling
        back to the thread backend.  ``"process"`` sidesteps the GIL on
        the scalar dispatch loops; every
        backend replays the same golden search sequence bit-for-bit.
    eval_workers:
        Worker count for ``eval_backend`` (None = CPU-derived default;
        meaningless without batching).
    stream:
        Lattice regime for the acquisition argmax: ``"auto"`` (default)
        streams block-wise only when the lattice exceeds
        :attr:`~repro.gp.proposals.LatticeView.AUTO_STREAM_CELLS` cells,
        ``"never"`` forces the materialized cached grid, ``"always"``
        forces streaming.  Streaming never materializes the grid, so peak
        acquisition memory is bounded by ``stream_block_size`` rows.
    stream_block_size:
        Rows per streamed lattice block (``None`` = the LatticeView
        default).
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
        kernel: Kernel | None = None,
        pseudo_observations: Sequence[PseudoObservation] = (),
        prune_seed: Sequence[tuple[int, ...]] = (),
        gp_noise: float = 1e-5,
        refit_period: int = 1,
        batch_size: int = 1,
        proposal_engine: str | ProposalEngine | None = None,
        batch_parallel: bool = True,
        eval_backend=None,
        eval_workers: int | None = None,
        stream: str = "auto",
        stream_block_size: int | None = None,
    ):
        super().__init__(max_samples=max_samples, seed=seed)
        if n_initial < 1:
            raise ValueError(f"n_initial must be >= 1, got {n_initial!r}")
        if prune_threshold < 0:
            raise ValueError("prune_threshold must be non-negative")
        if patience is not None and patience < 1:
            raise ValueError("patience must be >= 1 or None")
        if refit_period < 1:
            raise ValueError(f"refit_period must be >= 1, got {refit_period!r}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        if stream not in ("auto", "never", "always"):
            raise ValueError(
                f"stream must be 'auto', 'never' or 'always', got {stream!r}"
            )
        if stream_block_size is not None and int(stream_block_size) < 1:
            raise ValueError(
                f"stream_block_size must be >= 1, got {stream_block_size!r}"
            )
        self.n_initial = int(n_initial)
        self.refit_period = int(refit_period)
        self.batch_size = int(batch_size)
        self.proposal_engine = resolve_proposal_engine(
            proposal_engine, self.batch_size
        )
        self.batch_parallel = bool(batch_parallel)
        if eval_workers is not None and int(eval_workers) < 1:
            raise ValueError(f"eval_workers must be >= 1, got {eval_workers!r}")
        # Resolved once: a sweep's per-seed strategies each resolve their
        # own backend, but within one search the instance (and so any
        # process pool) persists across every batch.
        self.eval_backend = resolve_backend(eval_backend, eval_workers)
        self.eval_workers = None if eval_workers is None else int(eval_workers)
        self.stream = stream
        self.stream_block_size = stream_block_size
        self.prune_threshold = float(prune_threshold)
        self.patience = patience
        self.use_rounding = bool(use_rounding)
        self.use_pruning = bool(use_pruning)
        self._kernel_override = kernel
        self.pseudo_observations = tuple(pseudo_observations)
        self.prune_seed = tuple(prune_seed)
        self.gp_noise = float(gp_noise)
        #: Prune set of the last run (exposed for warm-start transfer).
        self.prune_set: PruneSet | None = None

    # -- kernel -------------------------------------------------------------
    def _make_kernel(self, bounds: Sequence[int]) -> Kernel:
        base = (
            self._kernel_override
            if self._kernel_override is not None
            else Matern52(length_scale=0.3, variance=1.0)
        )
        if self.use_rounding:
            # Inputs are normalized by the bounds; scale maps them back to
            # integer counts for rounding.
            return RoundedKernel(base, scale=np.asarray(bounds, dtype=float))
        return base

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

        ctx = AcquisitionContext(
            space,
            self._make_kernel(space.bounds),
            rng=rng,
            make_kernel=lambda: self._make_kernel(space.bounds),
            prune=prune if self.use_pruning else None,
            gp_noise=self.gp_noise,
            refit_period=self.refit_period,
            stream=self.stream,
            block_size=self.stream_block_size,
        )
        for pseudo in self.pseudo_observations:
            ctx.add_pseudo_observation(pseudo.counts, pseudo.objective)
        engine = self.proposal_engine

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

        # Search-constant metadata first, loop/prune statistics in the
        # finally below: every exit path — the early returns out of the
        # initial design included — reports the full metadata set.
        budget.metadata["proposal_engine"] = engine.name
        budget.metadata["acquisition_streamed"] = ctx.lattice.streaming
        effective_backend = self.eval_backend or evaluator.eval_backend
        budget.metadata["eval_backend"] = (
            effective_backend.name if effective_backend is not None else "thread"
        )
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
            # path as the BO loop, so batch_size > 1 amortizes it (and can
            # simulate it thread-parallel) too.  At batch_size=1 each batch
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
                    ctx.sampled_idx.add(cand)
                    drawn.append(cand)
                if not drawn:
                    return
                init_pools = [space.pool(ctx.counts_at(i)) for i in drawn]
                init_records = budget.evaluate_batch(
                    init_pools,
                    parallel=self.batch_parallel and len(init_pools) > 1,
                    backend=self.eval_backend,
                )
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
                pools = [space.pool(ctx.counts_at(i)) for i in proposals]
                records = budget.evaluate_batch(
                    pools,
                    parallel=self.batch_parallel and len(pools) > 1,
                    backend=self.eval_backend,
                )
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
            budget.metadata["n_pruned_final"] = ctx.n_pruned()
            budget.metadata["cost_threshold"] = prune.cost_threshold
            budget.metadata["proposal_batches"] = n_batches
