"""The BO acquisition step: pick the next configuration(s) by EI argmax.

* :class:`AcquisitionContext` — the per-search state the optimizer loop
  and the acquisition share: observations (normalized to the unit cube),
  the set of already-sampled lattice cells, the prune set, and the
  surrogate, refit on every proposal.  It also owns candidate access over
  the materialized lattice: one kernel preparation per search, and one
  candidate mask narrowed as cells are sampled and pruned.  Every lattice
  fits in memory: :class:`~repro.core.search_space.SearchSpace` refuses
  one above :data:`~repro.core.search_space.MAX_LATTICE_CELLS` cells;
* :class:`SequentialEI` — ``propose(ctx, q)``: one surrogate refit and
  one scoring call for the candidates' mean, std and EI
  (:meth:`~repro.gp.regression.GaussianProcessRegressor.predict_ei`, one
  call into the compiled scorer where it is bound), then ``q`` picks.
  The first pick is the plain EI argmax, with the masking,
  flat-acquisition fallback and random tie-breaking of the paper's
  schedule (golden-tested against the recorded search sequences).  Each
  later pick conditions a *fantasy copy* of the GP on a constant lie at
  the previous pick through the rank-1 Cholesky
  :meth:`~repro.gp.regression.GaussianProcessRegressor.add_observation`
  and refreshes the candidates' *mean* (O(M·n), against the O(M·n^2) std
  paid once per batch).  At ``q=1`` no fantasy runs.

Candidate-only scoring: the acquisition scores the candidate cells alone
(unsampled and unpruned; a median of ~13 % of a paper model's lattice at
proposal time), in ascending lattice order, so the argmax sees the tie
set a masked whole-lattice sweep would.  Every candidate row is computed
on its own in one fixed order, with no BLAS call, so a cell's mean, std
and EI are the bits a whole-lattice predict gives it, on every host.

Determinism contract: the acquisition draws only from the context's
generator, in a fixed order (one surrogate seed draw per refit, one
tie-break draw per pick), so equal seeds give equal proposal sequences
regardless of how the proposals are evaluated downstream.
"""

from __future__ import annotations

import copy
import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.gp.acquisition import expected_improvement
from repro.gp.kernels import Matern52, take_prepared
from repro.gp.regression import GaussianProcessRegressor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.pruning import PruneSet
    from repro.core.search_space import SearchSpace

__all__ = ["AcquisitionContext", "SequentialEI"]


class AcquisitionContext:
    """Per-search state shared between the optimizer loop and the acquisition.

    Owns the observation lists (unit-cube inputs + objective values), the
    sampled-cell index set, the surrogate fit and the candidate masking
    (sampled cells plus the active prune set).  All randomness flows
    through ``rng``.
    """

    #: Surrogate observation noise variance: evaluations are deterministic
    #: given a trace, so it only stabilizes the Cholesky factorization.
    GP_NOISE = 1e-5

    def __init__(
        self,
        space: "SearchSpace",
        *,
        rng: np.random.Generator,
        make_kernel: Callable[[], Matern52],
        prune: "PruneSet | None" = None,
    ):
        self.space = space
        self.rng = rng
        self.prune = prune
        self._make_kernel = make_kernel
        # Lattice preparation only (theta-independent); fits make their own.
        self._kernel = make_kernel()
        self._prepared = None
        self._bounds_vec = np.asarray(space.bounds, dtype=float)
        # Observations in growing buffers, of which the first _n_obs rows
        # are filled: every refit reads them as arrays.
        self._obs_x = np.empty((8, self._bounds_vec.size))
        self._obs_y = np.empty(8)
        self._n_obs = 0
        self._sampled: set[int] = set()
        # The kept candidate mask, the cost threshold and the ceilings it
        # already reflects, the per-cell costs and the lattice's columns.
        self._mask: np.ndarray | None = None
        self._mask_threshold = np.inf
        self._mask_ceilings: set[tuple[int, ...]] = set()
        self._costs: np.ndarray | None = None
        self._grid_columns: np.ndarray | None = None

    # -- lattice preparation ---------------------------------------------------
    def prepared(self):
        """The kernel's theta-independent view of the full lattice, cached."""
        if self._prepared is None:
            self._prepared = self._kernel.precompute_input(self.space.grid_unit())
        return self._prepared

    # -- observations ----------------------------------------------------------
    def unit_row(self, counts) -> np.ndarray:
        """A lattice vector normalized exactly as training inputs are."""
        return np.asarray(counts, dtype=float) / self._bounds_vec

    @property
    def observations_x(self) -> np.ndarray:
        """The observed unit-cube rows, oldest first (a read-only view)."""
        view = self._obs_x[: self._n_obs]
        view.flags.writeable = False
        return view

    @property
    def observations_y(self) -> np.ndarray:
        """The observed objective values, oldest first (a read-only view)."""
        view = self._obs_y[: self._n_obs]
        view.flags.writeable = False
        return view

    def _append_observation(self, counts, objective: float) -> None:
        n = self._n_obs
        if n == self._obs_y.size:
            self._obs_x = np.concatenate([self._obs_x, np.empty_like(self._obs_x)])
            self._obs_y = np.concatenate([self._obs_y, np.empty_like(self._obs_y)])
        self._obs_x[n] = self.unit_row(counts)
        self._obs_y[n] = float(objective)
        self._n_obs = n + 1

    def add_pseudo_observation(self, counts, objective: float) -> None:
        """Inject an estimated objective value (warm starts); not sampled."""
        self._append_observation(counts, objective)

    def observe(self, counts, objective: float) -> None:
        """Record a measured evaluation and mark its lattice cell sampled."""
        idx = self.space.index_of(counts)
        if idx is not None:
            self.mark_sampled(idx)
        self._append_observation(counts, objective)

    def mark_sampled(self, idx: int) -> None:
        """Exclude lattice cell ``idx`` from every later proposal."""
        self._sampled.add(idx)
        if self._mask is not None:
            self._mask[idx] = False

    @property
    def sampled_idx(self) -> frozenset[int]:
        """Lattice indices of the sampled cells (grown by :meth:`mark_sampled`)."""
        return frozenset(self._sampled)

    def best_observed(self) -> float:
        return float(self._obs_y[: self._n_obs].max())

    # -- candidate masking -----------------------------------------------------
    def _kept_mask(self) -> np.ndarray:
        """The search's unsampled-and-unpruned mask, brought up to date.

        Built once per search and then only narrowed: :meth:`mark_sampled`
        clears its cell, and a lower cost threshold or a new dominance
        ceiling is applied here, on the next read, to the cells it newly
        prunes.  The sampled set and the prune set only grow (a ceiling
        dropped by :meth:`PruneSet.add_violator` lies inside the box of
        the one that replaced it), so the kept mask always equals a fresh
        ``~sampled & ~prune.mask(grid)``.
        """
        mask = self._mask
        if mask is None:
            mask = np.ones(self.space.n_configurations, dtype=bool)
            if self._sampled:
                mask[list(self._sampled)] = False
            self._mask = mask
        prune = self.prune
        if prune is None:
            return mask
        threshold = prune.cost_threshold
        if threshold < self._mask_threshold:
            if self._costs is None:
                self._costs = prune.costs(self.space.grid())
            mask &= ~(self._costs >= threshold)
            self._mask_threshold = threshold
        for ceiling in prune.ceilings:
            if ceiling not in self._mask_ceilings:
                # ``all(grid <= ceiling, axis=1)`` a column at a time.
                columns = self._grid_columns
                if columns is None:
                    columns = np.ascontiguousarray(self.space.grid().T)
                    self._grid_columns = columns
                below = columns[0] <= ceiling[0]
                for column, bound in zip(columns[1:], ceiling[1:]):
                    below &= column <= bound
                mask &= ~below
                self._mask_ceilings.add(ceiling)
        return mask

    def candidate_indices(self) -> np.ndarray:
        """Lattice indices of the candidate cells, ascending."""
        return self._kept_mask().nonzero()[0]

    def random_unsampled(self) -> int | None:
        """A uniformly random candidate cell index (initial design)."""
        idx = self.candidate_indices()
        if idx.size == 0:
            return None
        return int(_draw(idx, self.rng))

    # -- surrogate -----------------------------------------------------------
    def surrogate_gp(self) -> GaussianProcessRegressor:
        """A fresh GP fit to every observation so far (the paper's schedule).

        Hyperparameters are re-optimized on every call once four
        observations exist; each call draws the seed of the fit's random
        start from ``rng``.
        """
        n = self._n_obs
        gp = GaussianProcessRegressor(
            self._make_kernel(),
            noise=self.GP_NOISE,
            optimize_hyperparameters=n >= 4,
            seed=int(self.rng.integers(2**31 - 1)),
        )
        # The fit keeps X as given: a view of rows that are never rewritten.
        return gp.fit(self._obs_x[:n], self._obs_y[:n])


def _candidate_argmax(
    ei: np.ndarray, std: np.ndarray, rng: np.random.Generator
) -> int:
    """EI argmax with the optimizer's exact tie rules, as a row position.

    ``ei`` and ``std`` hold the candidate cells only, in ascending lattice
    order, so the tie set — and the draw over it — is the one a masked
    sweep over the whole lattice would build.
    """
    best = float(ei.max())
    if not math.isfinite(best) or best <= 0.0:
        # Flat acquisition: fall back to the highest-variance candidate,
        # breaking ties randomly (pure exploration).
        top = (std >= std.max() - 1e-15).nonzero()[0]
    else:
        top = (ei >= best * (1.0 - 1e-9)).nonzero()[0]
    return int(_draw(top, rng))


def _draw(values: np.ndarray, rng: np.random.Generator):
    """``rng.choice(values)`` without its argument handling: the same
    bounded-integer draw, so the same pick and the same generator state."""
    return values[rng.integers(0, values.size)]


class SequentialEI:
    """EI-argmax proposals, ``q`` per surrogate update (Sec. 4).

    ``propose(ctx, 1)`` is the paper's schedule: one GP refit and one EI
    argmax per sample, with the masking, flat-acquisition fallback, tie
    tolerance and RNG draws of the recorded golden sequences.

    ``propose(ctx, q)`` with ``q > 1`` returns a constant-liar q-EI batch.
    The refit and the (mean + std) candidate predict are paid once; each
    pick after the first conditions a *fantasy copy* of the GP on a
    constant lie at the previous pick through the rank-1 Cholesky
    ``add_observation`` and refreshes the remaining candidates' mean.
    The lie is the smallest objective observed so far (the pessimistic
    CL-min): it steers later picks away from the fantasized region without
    inflating the incumbent.  The real surrogate never sees a fantasy;
    measured objectives enter through the normal schedule once the batch
    is evaluated.
    """

    def propose(self, ctx: AcquisitionContext, q: int = 1) -> list[int]:
        """Up to ``q`` unsampled lattice cell indices to evaluate next.

        An empty list means no candidate cells remain (the search stops).
        """
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q!r}")
        idx = ctx.candidate_indices()
        if idx.size == 0:
            return []
        gp = ctx.surrogate_gp()
        best_observed = ctx.best_observed()
        _, std, ei = gp.predict_ei(ctx.prepared(), best_observed, rows=idx)
        selected: list[int] = []
        fantasy = None
        while True:
            pos = _candidate_argmax(ei, std, ctx.rng)
            selected.append(int(idx[pos]))
            if len(selected) == q or idx.size == 1:
                return selected
            # Drop the pick's row; the rest keep their ascending order.
            rest = np.delete(np.arange(idx.size), pos)
            idx, std = idx[rest], std[rest]
            fantasy = _fantasize(ctx, gp, fantasy, selected[-1])
            mean = fantasy.predict(take_prepared(ctx.prepared(), idx))
            ei = expected_improvement(mean, std, best_observed=best_observed)


def _fantasize(
    ctx: AcquisitionContext,
    gp: GaussianProcessRegressor,
    fantasy: GaussianProcessRegressor | None,
    picked: int,
) -> GaussianProcessRegressor:
    """``fantasy`` (a copy of ``gp`` on first use) conditioned on the
    CL-min lie at lattice cell ``picked``."""
    if fantasy is None:
        fantasy = copy.deepcopy(gp)
    lie = float(np.minimum.reduce(ctx.observations_y))
    fantasy.add_observation(ctx.unit_row(ctx.space.counts_at(picked)), lie)
    return fantasy
