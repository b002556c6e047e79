"""The compiled family loop against the Python loops it ports.

``engine._native_loops()`` builds ``_dispatch.c`` with the system C
compiler on first use and loads it with ctypes; the Python loops are its
spec, its self-check oracle and its fallback.  These tests pin that the
two agree bit for bit, that the compiled path engages where a compiler
exists, and that every way the build can fail leaves ``simulate()``
answering identically on the Python loops.
"""

import shutil
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.simulator import engine
from repro.simulator.engine import InferenceServingSimulator
from repro.simulator.pool import PoolConfiguration
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache
from tests.conftest import make_tied_trace, make_toy_model, python_loops

HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler on PATH")


def simulate_all(model, trace, pools, service_cache=None, dispatch="family"):
    """Start times and latencies of every pool, memo off."""
    sim = InferenceServingSimulator(
        model,
        result_cache=SimulationResultCache(maxsize=0),
        service_cache=service_cache,
        dispatch=dispatch,
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


@needs_cc
def test_build_is_cached_by_source_hash(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    built = engine._build_native()
    assert built.parent == tmp_path / "repro-ribbon"
    stamp = built.stat().st_mtime_ns
    assert engine._build_native() == built
    assert built.stat().st_mtime_ns == stamp  # reused, not rebuilt
    assert [p.name for p in built.parent.iterdir()] == [built.name]


@needs_cc
def test_concurrent_cold_builds_agree(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with ThreadPoolExecutor(max_workers=3) as pool:
        paths = list(pool.map(lambda _: engine._build_native(), range(3)))
    assert len(set(paths)) == 1
    assert [p.name for p in paths[0].parent.iterdir()] == [paths[0].name]


@pytest.mark.parametrize("failure", ["build", "no-compiler", "self-check"])
def test_failed_build_falls_back_to_identical_results(
    failure, fresh_loader, monkeypatch
):
    with python_loops():
        expected = simulate_all(TOY, TRACE, POOLS)

    def raise_oserror():
        raise OSError("cc: cannot execute")

    if failure == "build":
        monkeypatch.setattr(engine, "_build_native", raise_oserror)
    elif failure == "no-compiler":
        monkeypatch.setattr(engine.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(engine, "_native_agrees", lambda loops: False)
    assert simulate_all(TOY, TRACE, POOLS) == expected
    assert engine._native_loops() is None


def test_python_loops_ignore_the_service_cache_setting():
    """Without the compiled loop, the family and heap loops give the same
    bytes whether the service matrix is cached or recomputed per call."""
    with python_loops():
        runs = [
            simulate_all(TOY, TRACE, POOLS, cache, dispatch)
            for cache in (ServiceTimeCache(), ServiceTimeCache(maxsize=0))
            for dispatch in InferenceServingSimulator.DISPATCH_POLICIES
        ]
    assert all(run == runs[0] for run in runs[1:])


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


@needs_cc
@given(problem=family_problems())
@settings(max_examples=200, deadline=None)
def test_compiled_loops_equal_python_loops(problem):
    arrival, matrix, counts = problem
    starts, family = engine._native_loops().run(arrival, matrix, counts)
    ref_starts, ref_family = engine._family_loop(
        arrival.tolist(), [row.tolist() for row in matrix], counts
    )
    assert starts.tobytes() == np.asarray(ref_starts, dtype=float).tobytes()
    if isinstance(ref_family, int):
        assert family == ref_family
    else:
        np.testing.assert_array_equal(family, ref_family)


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
