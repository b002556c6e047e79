"""Integration tests for the competing search strategies (Sec. 5.3)."""

import numpy as np
import pytest

from repro.analysis.cardinality import _count_better_configs
from repro.baselines.exhaustive import ExhaustiveSearch, find_optimal_configuration
from repro.baselines.hill_climb import HillClimb
from repro.baselines.random_search import RandomSearch
from repro.baselines.rsm import ResponseSurface, ccf_design
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.search_space import SearchSpace
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from tests.conftest import make_toy_model, make_toy_trace


@pytest.fixture(scope="module")
def ctx():
    model = make_toy_model(arrival_rate_qps=400.0)
    trace = make_toy_trace(model, n=600, seed=5)
    space = SearchSpace(("g4dn", "t3"), (4, 6))
    objective = RibbonObjective(space, qos_rate_target=0.95)
    shared = ConfigurationEvaluator(model, trace, objective)
    truth = find_optimal_configuration(shared)
    return model, trace, space, objective, truth


def fresh_evaluator(ctx):
    model, trace, space, objective, _ = ctx
    return ConfigurationEvaluator(model, trace, objective)


class TestExhaustive:
    def test_accelerated_matches_full_sweep(self, ctx):
        *_, truth = ctx
        full = ExhaustiveSearch(accelerate=False, stop_at_first=False).search(
            fresh_evaluator(ctx)
        )
        assert full.best is not None
        assert full.best.cost_per_hour == pytest.approx(truth.cost_per_hour)

    def test_accelerated_uses_fewer_samples(self, ctx):
        fast = ExhaustiveSearch().search(fresh_evaluator(ctx))
        slow = ExhaustiveSearch(accelerate=False, stop_at_first=False).search(
            fresh_evaluator(ctx)
        )
        assert fast.n_samples < slow.n_samples

    def test_full_sweep_covers_entire_grid(self, ctx):
        _, _, space, *_ = ctx
        res = ExhaustiveSearch(accelerate=False, stop_at_first=False).search(
            fresh_evaluator(ctx)
        )
        assert res.n_samples == space.n_configurations

    def test_first_satisfier_in_cost_order_is_optimum(self, ctx):
        *_, truth = ctx
        res = ExhaustiveSearch().search(fresh_evaluator(ctx))
        meeting = [r for r in res.history if r.meets_qos]
        assert len(meeting) == 1
        assert meeting[0].cost_per_hour == pytest.approx(truth.cost_per_hour)


class TestRandom:
    def test_finds_optimum_with_generous_budget(self, ctx):
        *_, truth = ctx
        res = RandomSearch(max_samples=200, seed=0).search(fresh_evaluator(ctx))
        assert res.best is not None
        assert res.best.cost_per_hour <= truth.cost_per_hour + 1e-9

    def test_skip_rules_prevent_dominated_samples(self, ctx):
        res = RandomSearch(max_samples=200, seed=1).search(fresh_evaluator(ctx))
        history = res.history
        for i, rec in enumerate(history):
            vec = np.asarray(rec.pool.counts)
            for prev in history[:i]:
                pvec = np.asarray(prev.pool.counts)
                if not prev.meets_qos and np.all(vec <= pvec):
                    pytest.fail(
                        f"sampled {rec.pool} despite dominating violator {prev.pool}"
                    )
                if prev.meets_qos and np.all(pvec <= vec) and not np.array_equal(pvec, vec):
                    pytest.fail(
                        f"sampled {rec.pool} despite cheaper satisfier {prev.pool}"
                    )

    def test_deterministic_given_seed(self, ctx):
        r1 = RandomSearch(max_samples=30, seed=7).search(fresh_evaluator(ctx))
        r2 = RandomSearch(max_samples=30, seed=7).search(fresh_evaluator(ctx))
        assert [r.pool.counts for r in r1.history] == [
            r.pool.counts for r in r2.history
        ]


class TestHillClimb:
    def test_finds_optimum(self, ctx):
        *_, truth = ctx
        res = HillClimb(max_samples=150, seed=0).search(fresh_evaluator(ctx))
        assert res.best is not None
        assert res.best.cost_per_hour == pytest.approx(truth.cost_per_hour)

    def test_moves_are_single_steps_until_restart(self, ctx):
        res = HillClimb(max_samples=60, seed=0, max_restarts=0).search(
            fresh_evaluator(ctx)
        )
        # Without restarts every consecutive evaluated pair differs by
        # at most 1 in one dimension from *some* earlier sample (greedy
        # neighborhood probing); weaker sanity: history non-empty, ends.
        assert res.n_samples >= 1

    def test_restart_escapes_local_optimum(self, ctx):
        with_restarts = HillClimb(max_samples=150, seed=3, max_restarts=20).search(
            fresh_evaluator(ctx)
        )
        without = HillClimb(max_samples=150, seed=3, max_restarts=0).search(
            fresh_evaluator(ctx)
        )
        assert with_restarts.best_cost <= without.best_cost + 1e-9

    def test_invalid_restarts_rejected(self):
        with pytest.raises(ValueError):
            HillClimb(max_restarts=-1)

    @pytest.mark.parametrize(
        "max_samples, max_restarts, expected",
        [
            (10, 20, 2),  # the budget runs out mid-climb
            (5, 20, 1),  # the budget refuses the first restart pool
            (60, 0, 0),  # the restart limit is hit at the first optimum
            (150, 20, 12),  # no unvisited cell is left to restart from
        ],
    )
    def test_restart_count_recorded_on_every_exit(
        self, ctx, max_samples, max_restarts, expected
    ):
        res = HillClimb(
            max_samples=max_samples, seed=0, max_restarts=max_restarts
        ).search(fresh_evaluator(ctx))
        assert res.metadata == {"restarts": expected}


class TestRSMDesign:
    def test_ccf_point_count_3_factors(self):
        # 2^3 corners + 2*3 face centers + 1 center = 15 (minus overlaps/origin).
        pts = ccf_design((4, 4, 4))
        assert len(pts) == 2**3 + 2 * 3 + 1 - 1  # origin corner dropped
        assert all(len(p) == 3 for p in pts)

    def test_levels_are_low_mid_high(self):
        pts = ccf_design((4, 6))
        values = {p[0] for p in pts}
        assert values <= {0, 2, 4}
        values_y = {p[1] for p in pts}
        assert values_y <= {0, 3, 6}

    def test_origin_excluded(self):
        assert all(sum(p) > 0 for p in ccf_design((3, 3)))

    def test_no_duplicates(self):
        pts = ccf_design((2, 2))
        assert len(pts) == len(set(pts))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ccf_design((0,))


class TestRSMSearch:
    def test_finds_optimum(self, ctx):
        *_, truth = ctx
        res = ResponseSurface(max_samples=150, seed=0).search(fresh_evaluator(ctx))
        assert res.best is not None
        assert res.best.cost_per_hour <= truth.cost_per_hour * 1.2 + 1e-9

    def test_design_points_sampled_first(self, ctx):
        _, _, space, *_ = ctx
        res = ResponseSurface(max_samples=150, seed=0).search(fresh_evaluator(ctx))
        design = ccf_design(space.bounds)
        first = [r.pool.counts for r in res.history[: len(design)]]
        assert first == design


class TestComparative:
    def test_ribbon_converges_fastest_on_average(self, ctx):
        """The paper's headline (Fig. 10): Ribbon needs fewest samples."""
        from repro.core.optimizer import RibbonOptimizer

        *_, truth = ctx
        target = truth.cost_per_hour
        cap = 80

        def mean_samples(make):
            vals = []
            for seed in (0, 1, 2):
                res = make(seed).search(fresh_evaluator(ctx))
                vals.append(res.samples_to_cost(target) or cap)
            return sum(vals) / len(vals)

        ribbon = mean_samples(lambda s: RibbonOptimizer(max_samples=40, seed=s, patience=None))
        random_ = mean_samples(lambda s: RandomSearch(max_samples=cap, seed=s))
        hill = mean_samples(lambda s: HillClimb(max_samples=cap, seed=s))
        assert ribbon <= random_ + 1e-9
        assert ribbon <= hill + 1e-9


class _ListScanRandom(RandomSearch):
    """RANDOM with its skip rules as per-candidate scans over every earlier
    observation: the readable reference the lattice mask must replay."""

    def _run(self, evaluator, budget, start):
        space = evaluator.space
        rng = np.random.default_rng(self.seed)
        grid = space.grid()
        order = rng.permutation(grid.shape[0])
        ceilings: list[np.ndarray] = []
        floors: list[np.ndarray] = []

        def observe(pool):
            rec = budget.evaluate(pool)
            if rec is not None:
                vec = np.asarray(pool.counts, dtype=np.int64)
                (floors if rec.meets_qos else ceilings).append(vec)

        def skip(vec):
            return any(np.all(vec <= c) for c in ceilings) or any(
                np.all(f <= vec) for f in floors
            )

        if start is not None and space.contains(start):
            observe(start)
        for idx in order:
            if budget.exhausted:
                return
            vec = grid[idx]
            pool = space.pool(vec)
            if budget.seen(pool) or skip(vec):
                continue
            observe(pool)
        budget.stopped = True


class _ListScanExhaustive(ExhaustiveSearch):
    """Exhaustive with its violator rule as a per-candidate list scan."""

    def _run(self, evaluator, budget, start):
        space = evaluator.space
        grid = space.grid()
        order = np.argsort(grid @ space.prices, kind="stable")
        ceilings: list[np.ndarray] = []
        for idx in order:
            if budget.exhausted:
                return
            vec = grid[idx]
            if self.accelerate and any(np.all(vec <= c) for c in ceilings):
                continue
            rec = budget.evaluate(space.pool(vec))
            if rec is None:
                return
            if rec.meets_qos:
                if self.stop_at_first:
                    budget.stopped = True
                    return
            elif self.accelerate:
                ceilings.append(np.asarray(vec, dtype=np.int64))
        budget.stopped = True


def _list_scan_count(model, trace, families, bounds, homogeneous_cost,
                     qos_target_ms, qos_rate_target):
    """The Fig. 8 counter with both rules as per-candidate list scans."""
    sim = InferenceServingSimulator(model)
    grids = np.meshgrid(*[np.arange(b + 1) for b in bounds], indexing="ij")
    grid = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    grid = grid[grid.sum(axis=1) > 0]
    prices = np.asarray(
        [model.catalog[f].price_per_hour for f in families], dtype=float
    )
    costs = grid @ prices
    under_cap = costs < homogeneous_cost - 1e-9
    order = np.argsort(costs[under_cap], kind="stable")
    ceilings: list[np.ndarray] = []
    floors: list[np.ndarray] = []
    n_better, best_cost, n_sim = 0, np.inf, 0
    for vec, cost in zip(grid[under_cap][order], costs[under_cap][order]):
        if any(np.all(vec <= c) for c in ceilings):
            continue
        if any(np.all(f <= vec) for f in floors):
            n_better += 1
            continue
        pool = PoolConfiguration(families, tuple(int(v) for v in vec))
        n_sim += 1
        if sim.simulate(trace, pool).qos_satisfaction_rate(qos_target_ms) >= (
            qos_rate_target
        ):
            n_better += 1
            best_cost = min(best_cost, float(cost))
            floors.append(np.asarray(vec))
        else:
            ceilings.append(np.asarray(vec))
    saving = (
        100.0 * (1.0 - best_cost / homogeneous_cost)
        if np.isfinite(best_cost)
        else 0.0
    )
    return n_better, saving, n_sim


class TestDominanceMask:
    """The skip-rule masks of RANDOM, Exhaustive and the Fig. 8 counter
    replay the per-candidate list scans they replaced, bit for bit."""

    SPACES = {
        "2d": (("g4dn", "t3"), (4, 6)),
        "3d": (("g4dn", "t3", "c5"), (3, 4, 5)),
    }

    @pytest.fixture(scope="class")
    def evaluators(self):
        model = make_toy_model(arrival_rate_qps=400.0)
        trace = make_toy_trace(model, n=600, seed=5)
        out = {}
        for key, (families, bounds) in self.SPACES.items():
            space = SearchSpace(families, bounds)
            objective = RibbonObjective(space, qos_rate_target=0.95)
            out[key] = ConfigurationEvaluator(model, trace, objective)
        return out

    @staticmethod
    def _starts(space):
        inside = space.pool(tuple(max(1, b // 2) for b in space.bounds))
        outside = PoolConfiguration(
            space.families, tuple(b + 1 for b in space.bounds)
        )
        return {"none": None, "inside": inside, "outside": outside}

    @staticmethod
    def _trace(result):
        return (
            [r.pool.counts for r in result.history],
            result.converged,
            result.n_samples,
        )

    @pytest.mark.parametrize("dims", ["2d", "3d"])
    @pytest.mark.parametrize("max_samples", [4, 12, 1000])
    def test_random_replays_list_scan(self, evaluators, dims, max_samples):
        ev = evaluators[dims]
        for start in self._starts(ev.space).values():
            for seed in range(4):
                mask = RandomSearch(max_samples=max_samples, seed=seed)
                scan = _ListScanRandom(max_samples=max_samples, seed=seed)
                assert self._trace(mask.search(ev, start)) == self._trace(
                    scan.search(ev, start)
                ), (dims, max_samples, start, seed)

    @pytest.mark.parametrize("dims", ["2d", "3d"])
    @pytest.mark.parametrize("max_samples", [3, 1000])
    @pytest.mark.parametrize(
        "accelerate, stop_at_first",
        [(True, None), (True, False), (False, False)],
    )
    def test_exhaustive_replays_list_scan(
        self, evaluators, dims, max_samples, accelerate, stop_at_first
    ):
        ev = evaluators[dims]
        kwargs = dict(
            max_samples=max_samples,
            accelerate=accelerate,
            stop_at_first=stop_at_first,
        )
        for start in self._starts(ev.space).values():
            mask = ExhaustiveSearch(**kwargs).search(ev, start)
            scan = _ListScanExhaustive(**kwargs).search(ev, start)
            assert self._trace(mask) == self._trace(scan), (dims, start)

    @pytest.mark.parametrize("dims", ["2d", "3d"])
    def test_cardinality_counter_replays_list_scan(self, dims):
        families, bounds = self.SPACES[dims]
        model = make_toy_model(arrival_rate_qps=400.0)
        prices = np.asarray(
            [model.catalog[f].price_per_hour for f in families], dtype=float
        )
        ceiling_cost = float(np.asarray(bounds) @ prices)
        for seed in (3, 5):
            trace = make_toy_trace(model, n=600, seed=seed)
            for frac in (0.3, 0.6, 1.01):
                args = (model, trace, families, bounds, frac * ceiling_cost,
                        model.qos_target_ms, 0.95)
                got = _count_better_configs(*args)
                assert got == _list_scan_count(*args), (dims, seed, frac)
