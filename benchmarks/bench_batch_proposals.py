"""Batched q-EI proposals vs the sequential BO schedule (repo infra).

Times the paper-style multi-seed Ribbon sweep in the two proposal
schedules of :class:`~repro.gp.proposals.SequentialEI`:

* **sequential** — the paper's schedule: one GP surrogate update and one
  candidate EI predict per sample (``batch_size=1``);
* **batched** — constant-liar q-EI (``batch_size=8``): one surrogate
  update and one (mean + std) candidate predict per *batch*, fantasy
  rank-1 updates in between, and the proposed pools evaluated together
  through ``Budget.evaluate_batch``.

Both sides share one warmed service-time cache and get an identical
fresh simulation memo, so the ratio isolates the proposal/evaluation
schedule.  ``BENCH_batch_proposals.json`` records the trajectory in the
shared artifact format (see :mod:`_artifact`).  The bench

* asserts the **bit-identity contract**: the sequential sweep replays
  its golden per-seed sample sequences exactly,
* asserts batching actually **engaged** (per-result metadata: fewer
  proposal batches than BO samples), and
* enforces the >= 2x sweep speedup on the recording host
  (``BENCH_ENFORCE_SPEEDUP=1/0`` overrides, as in the sibling benches).

CI runs this bench at full size with ``BENCH_ENFORCE_SPEEDUP=0``: every
golden and engagement assert runs, and the speedup is
recorded but not enforced (wall-clock ratios against another host's
baseline are meaningless there).
"""

from __future__ import annotations

import platform
import time

import pytest
from _artifact import BenchArtifact

from repro.api import (
    EvaluationBudget,
    PoolSpec,
    Scenario,
    ScenarioRunner,
    WorkloadSpec,
)
from repro.simulator.result_cache import SimulationResultCache
from repro.simulator.service import ServiceTimeCache

SPEEDUP_TARGET = 2.0
MEASURE_PASSES = 3
MAX_MEASURE_PASSES = 8


@pytest.fixture(scope="module")
def batch_ctx():
    spec = dict(BenchArtifact("BENCH_batch_proposals.json").workload)
    scenario = Scenario(
        model=spec["model"],
        workload=WorkloadSpec(
            n_queries=spec["n_queries"],
            seed=spec["workload_seed"],
            load_factor=spec["load_factor"],
        ),
        pool=PoolSpec(
            families=tuple(spec["families"]), bounds=tuple(spec["bounds"])
        ),
        budget=EvaluationBudget(max_samples=spec["max_samples"]),
    )
    return spec, scenario, tuple(spec["sweep_seeds"])


def _runner(scenario, service):
    # Fresh per-sweep memo (seeds share it, sides don't), shared warmed
    # service cache: the ratio isolates the proposal/evaluation schedule.
    return ScenarioRunner(
        scenario,
        service_cache=service,
        simulation_cache=SimulationResultCache(maxsize=4096),
    )


def _sweep(scenario, service, seeds, **kwargs):
    runner = _runner(scenario, service)
    t0 = time.perf_counter()
    results = runner.run_many("ribbon", seeds=seeds, patience=None, **kwargs)
    return time.perf_counter() - t0, results


def _sequences(results):
    return {
        seed: {
            "best": list(res.best.pool.counts) if res.best else None,
            "sequence": [list(r.pool.counts) for r in res.history],
        }
        for seed, res in results.items()
    }


def test_perf_batch_proposals(benchmark, batch_ctx):
    spec, scenario, seeds = batch_ctx
    batch_size = spec["batch_size"]
    service = ServiceTimeCache()

    # Warm-up (materialization + service matrix), then the sequential
    # reference sweep.
    _sweep(scenario, service, seeds)
    seq_times = []
    for _ in range(MEASURE_PASSES):
        dt, seq_results = _sweep(scenario, service, seeds)
        seq_times.append(dt)

    # The batched sweep (one surrogate update + one std-bearing grid
    # predict per batch).
    batch_times = []

    def measured():
        dt, results = _sweep(scenario, service, seeds, batch_size=batch_size)
        batch_times.append(dt)
        return results

    batch_results = benchmark.pedantic(
        measured, rounds=MEASURE_PASSES, iterations=1
    )
    while (
        min(batch_times) * SPEEDUP_TARGET > min(seq_times) * 0.95
        and len(batch_times) < MAX_MEASURE_PASSES
    ):
        dt, batch_results = _sweep(scenario, service, seeds, batch_size=batch_size)
        batch_times.append(dt)

    # Engagement: every seed proposed in true batches (fewer batches than
    # the samples after the 3-sample initial design), stayed within
    # budget, and never re-sampled a cell.
    for seed, res in batch_results.items():
        assert 1 <= res.metadata["proposal_batches"] < len(res.history) - 3, seed
        counts = [r.pool.counts for r in res.history]
        assert len(counts) == len(set(counts)) <= spec["max_samples"], seed
        assert res.best is not None, seed

    artifact = BenchArtifact("BENCH_batch_proposals.json")
    artifact.ensure_section(
        "golden", {str(s): v for s, v in _sequences(seq_results).items()}
    )
    artifact.ensure_section(
        "baseline_sequential",
        {
            "host": platform.node(),
            "recorded_at": time.strftime("%Y-%m-%d"),
            "wall_s": min(seq_times),
        },
    )
    for seed in seeds:
        golden = artifact.golden[str(seed)]
        got = _sequences(seq_results)[seed]
        assert got["best"] == golden["best"], f"seed {seed}"
        assert got["sequence"] == golden["sequence"], f"seed {seed} sequence"

    seq_wall, batch_wall = min(seq_times), min(batch_times)
    speedup = seq_wall / batch_wall
    artifact.record(
        sequential_wall_s=seq_wall,
        batched_wall_s=batch_wall,
        speedup_batched=speedup,
        batch_size=batch_size,
    )
    artifact.enforce_speedup(
        speedup,
        SPEEDUP_TARGET,
        baseline_host=artifact.baseline("baseline_sequential")["host"],
        label=(
            f"batched (q={batch_size}) {len(seeds)}-seed sweep vs the "
            "sequential proposal schedule"
        ),
    )
