"""Unit tests for the search space and the m_i bound estimation."""

import math

import numpy as np
import pytest

from repro.api import Scenario
from repro.api.runner import ScenarioRunner
from repro.cloud.catalog import DEFAULT_CATALOG
from repro.core.search_space import SearchSpace, estimate_instance_bounds
from repro.models import MODEL_ZOO
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration, grid_vectors
from repro.simulator.result_cache import SimulationResultCache, shared_simulation_cache
from repro.workload.trace import trace_for_model
from tests.conftest import dispatch_delta, make_toy_model, make_toy_trace


class TestSearchSpace:
    def setup_method(self):
        self.space = SearchSpace(("g4dn", "t3"), (5, 12))

    def test_geometry(self):
        assert self.space.n_dims == 2
        assert self.space.n_configurations == 6 * 13 - 1

    def test_grid_shape(self):
        grid = self.space.grid()
        assert grid.shape == (self.space.n_configurations, 2)

    def test_pool_roundtrip(self):
        p = self.space.pool((3, 4))
        assert p.counts == (3, 4)
        assert p.families == ("g4dn", "t3")

    def test_pool_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside bounds"):
            self.space.pool((6, 0))
        with pytest.raises(ValueError, match="dims"):
            self.space.pool((1,))

    def test_contains(self):
        assert self.space.contains(PoolConfiguration(("g4dn", "t3"), (5, 12)))
        assert not self.space.contains(PoolConfiguration(("g4dn", "t3"), (6, 0)))
        assert not self.space.contains(PoolConfiguration(("g4dn", "c5"), (1, 1)))

    def test_normalize_roundtrip(self):
        grid = self.space.grid()
        unit = self.space.normalize(grid)
        assert unit.min() >= 0.0 and unit.max() <= 1.0
        np.testing.assert_allclose(unit * np.asarray(self.space.bounds), grid)

    def test_prices_and_max_cost(self):
        p = self.space.prices
        np.testing.assert_allclose(
            p, [DEFAULT_CATALOG["g4dn"].price_per_hour, DEFAULT_CATALOG["t3"].price_per_hour]
        )
        assert self.space.max_cost == pytest.approx(5 * 0.526 + 12 * 0.1664)

    def test_cost(self):
        assert self.space.cost((3, 4)) == pytest.approx(3 * 0.526 + 4 * 0.1664)

    def test_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            SearchSpace(("g4dn",), (1, 2))
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpace(("g4dn", "g4dn"), (1, 2))
        with pytest.raises(ValueError, match=">= 1"):
            SearchSpace(("g4dn",), (0,))
        with pytest.raises(KeyError):
            SearchSpace(("nope",), (3,))


class TestBoundEstimation:
    def test_bounds_reflect_capacity(self):
        model = make_toy_model(arrival_rate_qps=400.0)
        trace = make_toy_trace(model, n=800)
        space = estimate_instance_bounds(
            model, trace, ("g4dn", "t3"), qos_target_ms=20.0, hard_cap=12
        )
        # g4dn (fast) saturates with fewer instances than t3 (slow).
        g_bound, t_bound = space.bounds
        assert 1 <= g_bound < t_bound <= 12

    def test_saturation_definition(self):
        """m_i is the smallest count whose QoS rate reaches the plateau."""
        model = make_toy_model(arrival_rate_qps=400.0)
        trace = make_toy_trace(model, n=800)
        space = estimate_instance_bounds(
            model, trace, ("g4dn",), qos_target_ms=20.0, hard_cap=12
        )
        (m,) = space.bounds
        from repro.simulator.engine import InferenceServingSimulator

        sim = InferenceServingSimulator(model)
        rate_m = sim.simulate(
            trace, PoolConfiguration.homogeneous("g4dn", m)
        ).qos_satisfaction_rate(20.0)
        rate_next = sim.simulate(
            trace, PoolConfiguration.homogeneous("g4dn", m + 1)
        ).qos_satisfaction_rate(20.0)
        assert rate_next <= rate_m + 1e-3

    def test_hard_cap_respected(self):
        model = make_toy_model(arrival_rate_qps=2000.0)  # needs many instances
        trace = make_toy_trace(model, n=600)
        space = estimate_instance_bounds(
            model, trace, ("t3",), qos_target_ms=20.0, hard_cap=4
        )
        assert space.bounds == (4,)

    def test_returns_ready_space(self):
        model = make_toy_model()
        trace = make_toy_trace(model, n=400)
        space = estimate_instance_bounds(model, trace, ("g4dn", "t3"), hard_cap=8)
        assert isinstance(space, SearchSpace)
        assert space.families == ("g4dn", "t3")


def scan_bounds(model, trace, families, *, qos_target_ms=None, hard_cap=16,
                saturation_eps=1e-3):
    """The definition, simulated count by count: the rate of 1..hard_cap
    instances (stopping at a perfect rate), then the smallest count within
    ``saturation_eps`` of the best rate seen."""
    target = qos_target_ms if qos_target_ms is not None else model.qos_target_ms
    sim = InferenceServingSimulator(
        model, result_cache=SimulationResultCache(maxsize=0)
    )
    bounds = []
    for fam in families:
        rates = []
        for count in range(1, hard_cap + 1):
            res = sim.simulate(trace, PoolConfiguration.homogeneous(fam, count))
            rates.append(res.qos_satisfaction_rate(target))
            if rates[-1] >= 1.0 - 1e-12:
                break
        plateau = max(rates)
        bounds.append(
            next(c for c, r in enumerate(rates, 1) if r >= plateau - saturation_eps)
        )
    return tuple(bounds)


def counted_bounds(model, trace, families, **kwargs):
    """Bisected bounds plus the number of simulations they dispatched."""
    sim = InferenceServingSimulator(
        model, result_cache=SimulationResultCache(maxsize=0)
    )
    with dispatch_delta() as counts:
        space = estimate_instance_bounds(
            model, trace, families, simulator=sim, **kwargs
        )
    return space.bounds, counts["linear"] + counts["heap"]


def sim_budget(n_families, hard_cap):
    return n_families * (1 + math.ceil(math.log2(hard_cap)))


class TestBisectionMatchesScan:
    """The bisection returns the linear scan's bounds within its budget of
    ``1 + ceil(log2 hard_cap)`` simulations per family."""

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_paper_models(self, name):
        model = MODEL_ZOO[name]
        for seed in (1, 2):
            for load in (0.6, 1.0, 1.5):
                trace = trace_for_model(
                    model, n_queries=1200, seed=seed, load_factor=load
                )
                fams = model.diverse_pool
                bounds, sims = counted_bounds(model, trace, fams)
                assert bounds == scan_bounds(model, trace, fams), (seed, load)
                assert sims <= sim_budget(len(fams), 16)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    @pytest.mark.parametrize("rate_qps", [250.0, 400.0, 900.0])
    def test_toy_model(self, seed, rate_qps):
        model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.3}, arrival_rate_qps=rate_qps)
        trace = make_toy_trace(model, n=600, seed=seed)
        fams = ("g4dn", "t3", "c5")
        for cap in (1, 2, 5, 12):
            bounds, sims = counted_bounds(
                model, trace, fams, qos_target_ms=20.0, hard_cap=cap
            )
            assert bounds == scan_bounds(
                model, trace, fams, qos_target_ms=20.0, hard_cap=cap
            ), cap
            assert sims <= sim_budget(len(fams), cap)

    def test_hard_cap_one(self):
        model = make_toy_model(arrival_rate_qps=2000.0)
        trace = make_toy_trace(model, n=400)
        bounds, sims = counted_bounds(
            model, trace, ("g4dn", "t3"), qos_target_ms=20.0, hard_cap=1
        )
        assert bounds == (1, 1)
        assert sims == 2  # the cap's rate only; nothing left to bisect

    def test_perfect_rate_family(self):
        """A family whose rate reaches exactly 1.0 well below the cap."""
        model = make_toy_model(arrival_rate_qps=150.0)
        trace = make_toy_trace(model, n=500)
        rate = InferenceServingSimulator(model).simulate(
            trace, PoolConfiguration.homogeneous("g4dn", 12)
        ).qos_satisfaction_rate(40.0)
        assert rate == 1.0
        bounds, sims = counted_bounds(
            model, trace, ("g4dn",), qos_target_ms=40.0, hard_cap=12
        )
        assert bounds == scan_bounds(
            model, trace, ("g4dn",), qos_target_ms=40.0, hard_cap=12
        )
        assert bounds[0] < 12
        assert sims <= sim_budget(1, 12)

    def test_cap_is_the_answer(self):
        model = make_toy_model(arrival_rate_qps=2000.0)
        trace = make_toy_trace(model, n=600)
        bounds, _ = counted_bounds(
            model, trace, ("t3",), qos_target_ms=20.0, hard_cap=5
        )
        assert bounds == (5,)
        assert bounds == scan_bounds(model, trace, ("t3",), qos_target_ms=20.0, hard_cap=5)

    def test_rejects_bad_cap_and_foreign_simulator(self):
        model = make_toy_model()
        trace = make_toy_trace(model, n=100)
        with pytest.raises(ValueError, match="hard_cap"):
            estimate_instance_bounds(model, trace, ("g4dn",), hard_cap=0)
        other = InferenceServingSimulator(make_toy_model())
        with pytest.raises(ValueError, match="serves"):
            estimate_instance_bounds(model, trace, ("g4dn",), simulator=other)


class TestRunnerBoundSimulations:
    """A runner estimates bounds on its own caches, policy and counters."""

    SCENARIO = Scenario("MT-WND").with_workload(n_queries=600, seed=5)

    def test_memo_opt_out_leaves_the_shared_memo_alone(self):
        shared = shared_simulation_cache()
        before = shared.stats()
        runner = ScenarioRunner(
            self.SCENARIO, simulation_cache=SimulationResultCache(maxsize=0)
        )
        runner.materialize(0)
        after = shared.stats()
        for key in ("hits", "misses", "size"):
            assert after[key] == before[key], key

    def test_dispatch_counts_include_bound_simulations(self):
        runner = ScenarioRunner(
            self.SCENARIO, simulation_cache=SimulationResultCache(maxsize=0)
        )
        with dispatch_delta() as counts:
            mat = runner.materialize(0)
        model = self.SCENARIO.profile
        _, sims = counted_bounds(
            model, mat.trace, self.SCENARIO.families,
            qos_target_ms=self.SCENARIO.qos_target_ms,
            hard_cap=self.SCENARIO.pool.bound_cap,
        )
        dispatched = counts["linear"] + counts["heap"]
        assert 0 < dispatched == sims
        assert dispatched <= sim_budget(
            len(self.SCENARIO.families), self.SCENARIO.pool.bound_cap
        )


class TestCachedGeometry:
    """grid()/grid_unit()/prices are built once and returned read-only."""

    def test_grid_cached_and_read_only(self):
        space = SearchSpace(("g4dn", "t3"), (2, 3))
        grid = space.grid()
        assert space.grid() is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 99
        np.testing.assert_array_equal(grid, grid_vectors((2, 3)))

    def test_grid_unit_cached_and_consistent(self):
        space = SearchSpace(("g4dn", "t3"), (2, 3))
        unit = space.grid_unit()
        assert space.grid_unit() is unit
        np.testing.assert_array_equal(unit, space.normalize(space.grid()))
        with pytest.raises(ValueError):
            unit[0, 0] = 0.5

    def test_prices_cached_and_read_only(self):
        space = SearchSpace(("g4dn", "t3"), (2, 3))
        prices = space.prices
        assert space.prices is prices
        with pytest.raises(ValueError):
            prices[0] = 0.0

    def test_caches_are_per_instance(self):
        a = SearchSpace(("g4dn", "t3"), (2, 3))
        b = SearchSpace(("g4dn", "t3"), (2, 4))
        assert a.grid().shape != b.grid().shape
