"""The compiled family loop against the Python loops it ports.

``engine._native_loops()`` builds ``_dispatch.c`` through
``repro._native`` with the system C compiler on first use and loads it
with ctypes; the Python loops are its spec, its self-check oracle and its
fallback.  These tests pin that the two agree bit for bit, that the
compiled path engages where a compiler exists, that ``repro._native``
caches its builds of both C files in one directory, and that every way
the build can fail leaves ``simulate()`` answering identically on the
Python loops.
"""

import shutil
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.search_space import SearchSpace
from repro.models.zoo import get_model
from repro.simulator import engine
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.metrics import queue_lengths_at_arrival
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache
from repro.workload.trace import trace_for_model
from tests.conftest import make_tied_trace, make_toy_model, python_loops

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")


def simulate_all(model, trace, pools, service_cache=None):
    """Start times and latencies of every pool, memo off."""
    sim = InferenceServingSimulator(
        model,
        result_cache=SimulationResultCache(maxsize=0),
        service_cache=service_cache,
    )
    out = []
    for pool in pools:
        res = sim.simulate(trace, pool)
        out.append((res.start_s.tobytes(), res.latency_s.tobytes()))
    return out


@pytest.fixture
def fresh_loader():
    """A cleared loader cache, cleared again afterwards so later tests
    reload the real library instead of a patched outcome."""
    engine._native_loops.cache_clear()
    yield
    engine._native_loops.cache_clear()


TOY = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2, "c5": 0.15})
TRACE = make_tied_trace(4, 400, rate=900.0)
POOLS = [
    PoolConfiguration.homogeneous("t3", 1),
    PoolConfiguration.homogeneous("g4dn", 5),
    PoolConfiguration(("g4dn", "t3", "c5"), (1, 0, 2)),
    PoolConfiguration(("g4dn", "t3", "c5"), (2, 3, 1)),
]


@needs_cc
def test_compiled_loop_engages_where_a_compiler_exists():
    loops = engine._native_loops()
    assert loops is not None

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("the Python family loop ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_family_loop", boom)
        simulate_all(TOY, TRACE, POOLS)


#: The package's two C files, as ``repro._native.build`` takes them.
SOURCES = (("repro.simulator", "_dispatch.c"), ("repro.gp", "_lml.c"))


@needs_cc
def test_build_is_cached_by_source_hash(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    built = [_native.build(*source) for source in SOURCES]
    assert {path.parent for path in built} == {tmp_path / "repro-ribbon"}
    stamps = [path.stat().st_mtime_ns for path in built]
    assert [_native.build(*source) for source in SOURCES] == built
    # Reused, not rebuilt, and nothing but the two libraries left behind.
    assert [path.stat().st_mtime_ns for path in built] == stamps
    assert sorted(p.name for p in built[0].parent.iterdir()) == sorted(
        path.name for path in built
    )


@needs_cc
def test_concurrent_cold_builds_agree(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with ThreadPoolExecutor(max_workers=3) as pool:
        paths = list(pool.map(lambda k: _native.build(*SOURCES[k % 2]), range(6)))
    assert len(set(paths[0::2])) == 1 and len(set(paths[1::2])) == 1
    assert sorted(p.name for p in paths[0].parent.iterdir()) == sorted(
        {path.name for path in paths}
    )


@pytest.mark.parametrize("failure", ["build", "no-compiler", "self-check"])
def test_failed_build_falls_back_to_identical_results(
    failure, fresh_loader, monkeypatch
):
    with python_loops():
        expected = simulate_all(TOY, TRACE, POOLS)

    def raise_oserror(package, filename):
        raise OSError("cc: cannot execute")

    if failure == "build":
        monkeypatch.setattr(_native, "build", raise_oserror)
    elif failure == "no-compiler":
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(engine, "_native_agrees", lambda loops: False)
    assert simulate_all(TOY, TRACE, POOLS) == expected
    assert engine._native_loops() is None


def test_python_loops_ignore_the_service_cache_setting():
    """Without the compiled loop, the family loop gives the same bytes
    whether the service matrix is cached or recomputed per call."""
    with python_loops():
        cached, uncached = (
            simulate_all(TOY, TRACE, POOLS, cache)
            for cache in (ServiceTimeCache(), ServiceTimeCache(maxsize=0))
        )
    assert cached == uncached


# -- bit equality with the Python loops ----------------------------------------


@st.composite
def family_problems(draw):
    """Arrivals and service rows on a dyadic grid (exact sums, so arrival
    ties, free-time ties and arrival-equals-finish ties all occur) or as
    random floats, with 1-4 live families among zero-count ones."""
    n = draw(st.integers(1, 160))
    n_fam = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 4), min_size=n_fam, max_size=n_fam))
    live = sum(1 for c in counts if c)
    assume(1 <= live <= 4)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        gaps = rng.integers(0, 3, size=n) * 0.125
        matrix = rng.integers(0, 5, size=(n_fam, n)) * 0.25
        if draw(st.booleans()):  # every family serves alike
            matrix[:] = matrix[0]
    else:
        gaps = rng.exponential(0.01, size=n) * (rng.random(n) < 0.7)
        matrix = rng.lognormal(np.log(0.02), 0.5, size=(n_fam, n))
    return np.cumsum(gaps), matrix, tuple(counts)


def python_figures(arrival, matrix, counts):
    """The Python spec of the compiled loop's outputs: the Python family
    loop's start times, the latencies ``simulate`` derives from them, and
    the summed queue column the result derives."""
    starts, family = engine._family_loop(
        arrival.tolist(), [row.tolist() for row in matrix], counts
    )
    start = np.asarray(starts, dtype=float)
    if isinstance(family, int):
        service = matrix[family]
    else:
        service = matrix[family, np.arange(arrival.size)]
    queue = queue_lengths_at_arrival(start, arrival)
    return start, (start - arrival) + service, queue


@needs_cc
@given(problem=family_problems())
@settings(max_examples=200, deadline=None)
def test_compiled_loops_equal_python_loops(problem):
    arrival, matrix, counts = problem
    start, latency, queued = engine._native_loops().run(arrival, matrix, counts)
    ref_start, ref_latency, ref_queue = python_figures(arrival, matrix, counts)
    assert start.tobytes() == ref_start.tobytes()
    assert latency.tobytes() == ref_latency.tobytes()
    assert queued == ref_queue.sum()
    assert float(queued) / arrival.size == ref_queue.mean()


@needs_cc
@pytest.mark.parametrize("output", ["start", "latency", "queue total"])
def test_self_check_covers_every_output(output):
    """A compiled loop that is off by one ulp in one latency or start, or
    by one in the queue total, fails the self-check."""
    loops = engine._native_loops()

    class Drifted:
        def run(self, arrival, matrix, counts):
            start, latency, queued = loops.run(arrival, matrix, counts)
            if output == "queue total":
                return start, latency, queued + 1
            drifted = start if output == "start" else latency
            drifted[-1] = np.nextafter(drifted[-1], np.inf)
            return start, latency, queued

    assert engine._native_agrees(loops)
    assert not engine._native_agrees(Drifted())


@needs_cc
@pytest.mark.parametrize("model_name", ["CANDLE", "MT-WND"])
def test_evaluation_records_equal_on_both_substrates(model_name):
    """On a paper model, every figure the search reads from a simulation
    is the same float whether the compiled loop or the Python loops ran."""
    model = get_model(model_name)
    trace = trace_for_model(model, n_queries=1500, seed=3)
    families = model.profiled_families()
    space = SearchSpace(families, (3,) * len(families))
    rng = np.random.default_rng(0)
    pools = {tuple(int(c) for c in rng.integers(0, 4, len(families)))
             for _ in range(40)} - {(0,) * len(families)}

    def records():
        evaluator = ConfigurationEvaluator(
            model, trace, RibbonObjective(space),
            result_cache=SimulationResultCache(maxsize=0),
        )
        return [
            np.array([rec.qos_rate, rec.p99_ms, rec.mean_queue_length]).tobytes()
            for rec in map(evaluator.evaluate, map(space.pool, sorted(pools)))
        ]

    compiled = records()
    with python_loops():
        assert records() == compiled


def test_threads_share_one_read_only_matrix():
    """Eight threads simulate different pools at once on one cached,
    read-only service matrix; each equals its serial result."""
    model = make_toy_model(noise={"g4dn": 0.1, "t3": 0.2, "c5": 0.15})
    trace = make_tied_trace(8, 3000, rate=900.0)
    families = ("g4dn", "t3", "c5")
    pools = [
        PoolConfiguration(families, (1 + i % 3, i % 2, 1 + i // 3))
        for i in range(8)
    ]
    service_cache = ServiceTimeCache()
    serial = simulate_all(model, trace, pools, service_cache)
    assert not service_cache.matrix(model, trace, families).flags.writeable
    barrier = threading.Barrier(len(pools))

    def one(pool):
        barrier.wait()
        return simulate_all(model, trace, [pool], service_cache)[0]

    with ThreadPoolExecutor(max_workers=len(pools)) as executor:
        parallel = list(executor.map(one, pools))
    assert parallel == serial


@needs_cc
@pytest.mark.parametrize(
    "shape, counts",
    [((2, 10), (1, 1)), ((3, 11), (1, 1)), ((2, 11), (0, 0)), ((2, 11), (2, -1))],
)
def test_compiled_loop_rejects_mismatched_inputs(shape, counts):
    """Sizes are checked before any pointer reaches C."""
    with pytest.raises(ValueError, match="does not fit"):
        engine._native_loops().run(np.zeros(11), np.ones(shape), counts)
