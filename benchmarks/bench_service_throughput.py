"""Service-layer overhead: HTTP round trips and daemon throughput.

Two measurements around the optimization service (PR 6), both over a real
socket against a daemon on an ephemeral port:

* **round-trip latency** — submit → wait → fetch-result cycles against a
  stub runner factory that returns canned records instantly, so the
  number is pure service overhead (HTTP parsing, JSON, job bookkeeping,
  worker handoff) with zero simulation inside;
* **daemon throughput vs direct calls** — an N-seed sweep of a real
  Ribbon search submitted as N concurrent service jobs, against the same
  sweep through the serial :meth:`ScenarioRunner.run_many` in-process.
  The service must return bit-identical per-seed results
  (golden-pinned), and on the recording host its wall time must stay
  within ``1/EFFICIENCY_TARGET`` of the direct path — the daemon is a
  front-end, not a second optimizer.

``BENCH_service_throughput.json`` at the repo root records the pinned
workload, the golden per-seed sequences, the direct-path baseline, and an
append-only history of recordings (the ``BENCH_*`` artifact idiom).

CI runs this with ``BENCH_SERVICE_SMOKE=1``: shrunken workload and job
counts, identity assertions only, no artifact/wall-clock bookkeeping.
"""

from __future__ import annotations

import os
import threading
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
from repro.core.evaluator import EvaluationRecord
from repro.core.result import SearchResult
from repro.service import JobManager, ServiceClient, make_server
from repro.simulator.pool import PoolConfiguration

#: Direct wall / service wall on the recording host must stay above this.
#: The sweep is deliberately short (seconds, not minutes), so fixed HTTP +
#: polling overhead is a visible fraction; the bound guards against the
#: daemon becoming pathologically slow, not against that constant.
EFFICIENCY_TARGET = 0.3

SMOKE = os.environ.get("BENCH_SERVICE_SMOKE") == "1"

N_LATENCY_JOBS = 5 if SMOKE else 25


class _InstantRunner:
    """Stub runner: three canned records, no simulation — pure overhead."""

    def __init__(self, scenario):
        self.scenario = scenario

    def run(self, strategy, *, seed=0, progress=None, **kwargs):
        history = []
        for i in range(3):
            rec = EvaluationRecord(
                pool=PoolConfiguration(("g4dn", "t3"), (i + 1, 1)),
                qos_rate=0.999,
                cost_per_hour=3.0 - i,
                objective=3.0 - i,
                meets_qos=True,
                sample_index=i,
                p99_ms=10.0,
                mean_queue_length=0.1,
            )
            history.append(rec)
            if progress is not None:
                progress(rec)
        return SearchResult(
            method=strategy,
            best=history[-1],
            history=tuple(history),
            exploration_cost_dollars=0.0,
            exhaustive_cost_dollars=1.0,
        )

    def fork(self, **changes):
        return _InstantRunner(self.scenario.with_workload(**changes))


def _daemon(manager):
    server = make_server(manager, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    return server, ServiceClient(f"http://{host}:{port}", timeout=120.0)


def _spec():
    artifact = BenchArtifact("BENCH_service_throughput.json")
    artifact.ensure_section(
        "workload",
        {
            "model": "MT-WND",
            "n_queries": 4000,
            "workload_seed": 1,
            "families": ["g4dn", "t3"],
            "bounds": [6, 6],
            "max_samples": 20,
            "strategy": "ribbon",
            "sweep_seeds": [0, 1, 2, 3, 4, 5],
            "workers": 3,
        },
    )
    spec = dict(artifact.workload)
    if SMOKE:
        spec["n_queries"] = 500
        spec["max_samples"] = 5
        spec["sweep_seeds"] = spec["sweep_seeds"][:3]
    return artifact, spec


def _scenario(spec) -> Scenario:
    return Scenario(
        model=spec["model"],
        workload=WorkloadSpec(n_queries=spec["n_queries"], seed=spec["workload_seed"]),
        pool=PoolSpec(
            families=tuple(spec["families"]), bounds=tuple(spec["bounds"])
        ),
        budget=EvaluationBudget(max_samples=spec["max_samples"]),
    )


def _sequences(per_seed):
    return {
        str(seed): {
            "best": best,
            "sequence": sequence,
        }
        for seed, (best, sequence) in per_seed.items()
    }


def test_service_round_trip_latency(benchmark):
    """Submit/poll/result cycles against an instant stub: pure overhead."""
    manager = JobManager(runner_factory=_InstantRunner, max_workers=2)
    server, client = _daemon(manager)
    try:
        scenario = _scenario(_spec()[1])
        latencies: list[float] = []

        def cycle():
            for _ in range(N_LATENCY_JOBS):
                t0 = time.perf_counter()
                job = client.submit(scenario, "ribbon", reuse=False)
                client.wait(job["id"], timeout=30, poll=0.002)
                client.result(job["id"])
                latencies.append(time.perf_counter() - t0)

        benchmark.pedantic(cycle, rounds=1, iterations=1)
        assert len(latencies) == N_LATENCY_JOBS
        assert all(
            j["state"] == "done" for j in client.jobs()
        ), "stub-backed jobs must all finish"
        if not SMOKE:
            artifact = BenchArtifact("BENCH_service_throughput.json")
            mean_ms = 1e3 * sum(latencies) / len(latencies)
            artifact.record(
                kind="round_trip_latency",
                n_jobs=N_LATENCY_JOBS,
                mean_latency_ms=mean_ms,
                jobs_per_s=len(latencies) / sum(latencies),
            )
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown(cancel_running=True)


def test_service_throughput_vs_direct(benchmark):
    artifact, spec = _spec()
    seeds = list(spec["sweep_seeds"])
    strategy, workers = spec["strategy"], spec["workers"]

    # Direct path: its own runner (cold caches), serial sweep.
    direct_runner = ScenarioRunner(_scenario(spec))
    t0 = time.perf_counter()
    direct = direct_runner.run_many(strategy, seeds=seeds)
    direct_wall = time.perf_counter() - t0
    direct_seq = _sequences(
        {
            s: (
                list(res.best.pool.counts) if res.best else None,
                [list(r.pool.counts) for r in res.history],
            )
            for s, res in direct.items()
        }
    )

    # Service path: a fresh runner behind the daemon (cold again), the
    # same sweep as N concurrent HTTP jobs.
    manager = JobManager(
        runner_factory=lambda scn: ScenarioRunner(scn), max_workers=workers
    )
    server, client = _daemon(manager)
    try:
        service_wall = None

        def sweep():
            nonlocal service_wall
            t0 = time.perf_counter()
            jobs = [
                client.submit(_scenario(spec), strategy, seed=s, reuse=False)
                for s in seeds
            ]
            for job in jobs:
                client.wait(job["id"], timeout=600, poll=0.01)
            out = {
                s: client.result(job["id"])["result"]
                for s, job in zip(seeds, jobs)
            }
            service_wall = time.perf_counter() - t0
            return out

        service = benchmark.pedantic(sweep, rounds=1, iterations=1)
    finally:
        server.shutdown()
        server.server_close()
        manager.shutdown(cancel_running=True)

    service_seq = _sequences(
        {
            s: (
                res["best"]["counts"] if res["best"] else None,
                [list(r["counts"]) for r in res["history"]],
            )
            for s, res in service.items()
        }
    )
    # The daemon is a front-end: per-seed results match the direct sweep
    # bit-for-bit (same pools in the same order, same best).
    assert service_seq == direct_seq

    if SMOKE:
        return  # shrunken workload: goldens/timings are not comparable

    artifact.ensure_section("golden", direct_seq)
    for seed, golden in artifact.golden.items():
        assert direct_seq[seed]["best"] == golden["best"], f"seed {seed}"
        assert direct_seq[seed]["sequence"] == golden["sequence"], (
            f"seed {seed} sample sequence"
        )
    artifact.ensure_section(
        "baseline_direct",
        {
            "host": __import__("platform").node(),
            "wall_s": direct_wall,
            "workers": workers,
        },
    )
    efficiency = direct_wall / service_wall
    artifact.record(
        kind="sweep_throughput",
        n_seeds=len(seeds),
        direct_wall_s=direct_wall,
        service_wall_s=service_wall,
        efficiency_vs_direct=efficiency,
    )
    artifact.enforce_speedup(
        efficiency,
        EFFICIENCY_TARGET,
        baseline_host=artifact.baseline("baseline_direct")["host"],
        label=(
            f"{len(seeds)}-job service sweep ({workers} daemon workers) "
            "vs serial direct run_many"
        ),
    )
