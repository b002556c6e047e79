"""The search-core rewrite's exactness contract.

The PR-2 optimizations (service-time cache, heap dispatch, analytic-gradient
GP, prepared-state kernels) must not change *what* the search does — only
how fast it does it.  These tests pin that contract:

* the benchmark workload's golden best pools and sample sequences (recorded
  in ``BENCH_search_core.json`` from the pre-rewrite code) are reproduced
  exactly;
* searches are invariant to cache sharing and repeatable per seed.
"""

import json
import pathlib

import pytest

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.optimizer import RibbonOptimizer
from repro.core.search_space import SearchSpace
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache
from tests.conftest import make_toy_model, make_toy_trace

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_search_core.json"


def toy_ctx():
    model = make_toy_model(arrival_rate_qps=400.0)
    trace = make_toy_trace(model, n=600, seed=5)
    space = SearchSpace(("g4dn", "t3"), (4, 6))
    objective = RibbonObjective(space, qos_rate_target=0.95)
    return model, trace, space, objective


def run_search(model, trace, space, objective, seed, **kwargs):
    # Result memo disabled: repeat-run comparisons in this suite must
    # actually re-simulate, not replay memoized results.
    evaluator = ConfigurationEvaluator(
        model, trace, objective, result_cache=SimulationResultCache(maxsize=0)
    )
    return RibbonOptimizer(max_samples=25, seed=seed, **kwargs).search(evaluator)


class TestGoldenSequences:
    """Bench-workload sequences recorded before the rewrite, replayed after."""

    @pytest.fixture(scope="class")
    def bench_golden(self):
        artifact = json.loads(BENCH_JSON.read_text())
        return artifact["workload"], artifact["golden"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bench_workload_sequence_identical(self, bench_golden, seed):
        from repro.models.zoo import get_model
        from repro.workload.trace import trace_for_model

        spec, golden = bench_golden
        model = get_model(spec["model"])
        trace = trace_for_model(
            model,
            n_queries=spec["n_queries"],
            seed=spec["trace_seed"],
            load_factor=spec["load_factor"],
        )
        space = SearchSpace(tuple(spec["families"]), tuple(spec["bounds"]))
        evaluator = ConfigurationEvaluator(model, trace, RibbonObjective(space))
        res = RibbonOptimizer(max_samples=spec["max_samples"], seed=seed).search(
            evaluator
        )
        expected = golden[str(seed)]
        assert res.best is not None
        assert list(res.best.pool.counts) == expected["best"]
        assert [list(r.pool.counts) for r in res.history] == expected["sequence"]


class TestInvariances:
    def test_search_invariant_to_cache_sharing(self):
        model, trace, space, objective = toy_ctx()
        # Both sides opt out of the result memo — it would replay the
        # isolated run's simulations into the shared run, hiding any
        # service-cache-induced divergence this test exists to catch.
        isolated = ConfigurationEvaluator(
            model,
            trace,
            objective,
            service_cache=ServiceTimeCache(maxsize=0),
            result_cache=SimulationResultCache(maxsize=0),
        )
        shared = ConfigurationEvaluator(
            model, trace, objective, result_cache=SimulationResultCache(maxsize=0)
        )
        r1 = RibbonOptimizer(max_samples=20, seed=3).search(isolated)
        r2 = RibbonOptimizer(max_samples=20, seed=3).search(shared)
        assert [r.pool.counts for r in r1.history] == [
            r.pool.counts for r in r2.history
        ]
        assert r1.best.pool.counts == r2.best.pool.counts
        assert r1.best.qos_rate == r2.best.qos_rate

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_search_repeatable_per_seed(self, seed):
        model, trace, space, objective = toy_ctx()
        a = run_search(model, trace, space, objective, seed)
        b = run_search(model, trace, space, objective, seed)
        assert [r.pool.counts for r in a.history] == [
            r.pool.counts for r in b.history
        ]
