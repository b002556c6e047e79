"""Engine micro-benchmarks (repo infrastructure, not a paper figure).

Timings of the hot paths the whole harness sits on: one configuration
evaluation (fast engine), the event-heap reference, a GP fit+predict, and a
full Ribbon search.  These are real repeated benchmarks (pytest-benchmark
statistics are meaningful here, unlike the one-shot figure benches).
"""

import numpy as np
import pytest

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.optimizer import RibbonOptimizer
from repro.core.search_space import SearchSpace
from repro.gp.kernels import Matern52, RoundedKernel
from repro.gp.regression import GaussianProcessRegressor
from repro.models.zoo import get_model
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.events import EventHeapSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.workload.trace import trace_for_model

# These benches time the dispatch/search loops themselves, so the
# whole-result memo (which would turn every repeat into a dict hit) is
# disabled; bench_memo_sweep.py measures the memo.
_NO_MEMO = {"result_cache": SimulationResultCache(maxsize=0)}


@pytest.fixture(scope="module")
def workload():
    model = get_model("MT-WND")
    trace = trace_for_model(model, n_queries=4000, seed=1)
    pool = PoolConfiguration(("g4dn", "c5", "r5n"), (3, 2, 2))
    return model, trace, pool


def test_perf_fast_engine(benchmark, workload):
    model, trace, pool = workload
    sim = InferenceServingSimulator(model, **_NO_MEMO)
    res = benchmark(sim.simulate, trace, pool)
    assert len(res) == len(trace)


def test_perf_fast_engine_then_queue_read(benchmark, workload):
    """Simulate, then read the mean queue length: the evaluator's
    per-sample cost (the queue column is derived on that first read)."""
    model, trace, pool = workload
    sim = InferenceServingSimulator(model, **_NO_MEMO)

    def simulate_and_read():
        res = sim.simulate(trace, pool)
        return res, res.mean_queue_length

    res, _ = benchmark(simulate_and_read)
    assert res.queue_len_at_arrival.size == len(trace)


@pytest.fixture(scope="module")
def hetero_workload():
    """A saturated 128-instance three-family mix (this bench tracks
    absolute engine cost there, per dispatch policy)."""
    model = get_model("MT-WND")
    trace = trace_for_model(model, n_queries=4000, seed=1, load_factor=60.0)
    pool = PoolConfiguration(("g4dn", "c5", "r5n"), (64, 32, 32))
    return model, trace, pool


@pytest.mark.parametrize("dispatch", InferenceServingSimulator.DISPATCH_POLICIES)
def test_perf_fast_engine_hetero(benchmark, hetero_workload, dispatch):
    model, trace, pool = hetero_workload
    sim = InferenceServingSimulator(model, dispatch=dispatch, **_NO_MEMO)
    res = benchmark(sim.simulate, trace, pool)
    assert len(res) == len(trace)


def test_perf_event_heap_reference(benchmark, workload):
    model, trace, pool = workload
    sim = EventHeapSimulator(model)
    res = benchmark(sim.simulate, trace, pool)
    assert len(res) == len(trace)


def test_perf_gp_fit_predict(benchmark):
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(30, 3))
    y = np.sin(X.sum(axis=1) * 3.0)
    grid = rng.uniform(size=(500, 3))
    kernel = RoundedKernel(Matern52(0.3), scale=np.array([5.0, 6.0, 8.0]))

    def fit_predict():
        gp = GaussianProcessRegressor(
            kernel, noise=1e-5, optimize_hyperparameters=False
        )
        gp.fit(X, y)
        return gp.predict(grid, return_std=True)

    mean, std = benchmark(fit_predict)
    assert mean.shape == (500,)
    assert np.all(std >= 0)


def test_perf_full_ribbon_search(benchmark, workload):
    model, trace, _ = workload
    space = SearchSpace(("g4dn", "c5", "r5n"), (5, 6, 8))
    objective = RibbonObjective(space)

    def search():
        evaluator = ConfigurationEvaluator(model, trace, objective, **_NO_MEMO)
        return RibbonOptimizer(max_samples=20, seed=0).search(evaluator)

    result = benchmark.pedantic(search, rounds=2, iterations=1)
    assert result.n_samples <= 20
