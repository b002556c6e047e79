"""The benchmark's three workloads: op lists, timed execution, output checks.

Every workload is a closed loop driven by one client thread: the next op
is issued only after the previous one returned.  The op list is a pure
function of the workload seed and the run length, so two runs with the
same arguments execute the same ops.  Output checks run after the timed
op phase, never inside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass

import calibrate
from tracing import NO_TRACER

MODELS = ("CANDLE", "ResNet50", "VGG19", "MT-WND", "DIEN")
#: The workload seed whose per-op outputs are pinned in ``goldens.json``.
DEFAULT_SEED = 0
#: Tail percentile reported as ``op_tail_s``; at the default run length
#: every workload has at least ten search ops above it.
TAIL_PERCENTILE = 75
GOLDENS = pathlib.Path(__file__).with_name("goldens.json")

#: Problem sizes: ``paper`` is what the benchmark measures, ``tiny`` is the
#: seconds-long smoke size used by ``selftest.py``.
SIZES = {
    "paper": {
        "queries": 4000, "samples": 40,
        "fig10_budget": 120, "fig10_seeds": 3,
        "svc_queries": 1000, "svc_samples": 20,
        "setup_spawns": 4,
    },
    "tiny": {
        "queries": 500, "samples": 8,
        "fig10_budget": 15, "fig10_seeds": 1,
        "svc_queries": 600, "svc_samples": 20,
        "setup_spawns": 2,
    },
}

#: Nominal pace of each workload at the paper size on the reference host
#: (see ``calibrate.py``), used to size the fixed op list from ``--seconds``.
PAPER_SEARCH_ROUNDS_PER_S = 0.85  # one round: a search per model
FIG10_SECONDS_PER_MODEL = 2.0  # one model block: set-up + 4 strategies x 3 seeds
SERVICE_OPS_PER_S = 16.0
#: Seconds of op phase between two host-speed probes.
PROBE_EVERY_S = 1.0
SERVICE_MODELS = ("MT-WND", "DIEN", "CANDLE")
SERVICE_TRACES_PER_MODEL = 2
#: Op kinds by position, one period: 14 fresh jobs, 3 reuses, 3 forks.
SERVICE_PATTERN = tuple(
    "reuse" if i in (3, 10, 16) else "fork" if i in (6, 13, 19) else "fresh"
    for i in range(20)
)
SERVICE_FORK_LOAD = 1.5


@dataclass
class Op:
    kind: str  # "search" (op latency), "hit" (reuse latency) or "setup"
    label: str
    strategy: str | None = None
    latency_s: float = 0.0
    failed: str | None = None
    saving_pct: float | None = None
    explore_usd: float | None = None


def history_digest(count_rows) -> str:
    """sha256 of the sampled configuration sequence."""
    rows = [list(map(int, counts)) for counts in count_rows]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def resimulate(model, trace, families, counts, qos_target_ms, rate_target,
               qos_rate, cost_per_hour, catalog=None):
    """Failure reason if the pool misses QoS or its reported numbers, else None.

    The pool is served again on a fresh heap-dispatch simulator with every
    cache disabled, so nothing the search computed is reused.
    """
    from repro.simulator import InferenceServingSimulator, PoolConfiguration
    from repro.simulator.result_cache import SimulationResultCache
    from repro.simulator.service import ServiceTimeCache

    sim = InferenceServingSimulator(
        model,
        dispatch="heap",
        result_cache=SimulationResultCache(maxsize=0),
        service_cache=ServiceTimeCache(maxsize=0),
    )
    pool = PoolConfiguration(tuple(families), tuple(int(c) for c in counts))
    rate = sim.simulate(trace, pool).qos_satisfaction_rate(qos_target_ms)
    cost = pool.hourly_cost(catalog) if catalog is not None else pool.hourly_cost()
    if rate < rate_target:
        return f"best pool {pool} serves {rate:.4f} < {rate_target} at {qos_target_ms} ms"
    if not math.isclose(rate, qos_rate, rel_tol=1e-12, abs_tol=1e-12):
        return f"best pool {pool} re-simulates to rate {rate!r}, reported {qos_rate!r}"
    if not math.isclose(cost, cost_per_hour, rel_tol=1e-12):
        return f"best pool {pool} costs {cost!r}/h, reported {cost_per_hour!r}"
    return None


class Run:
    """One workload run: the op list, its timings, and deferred checks."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str,
                 tracer=NO_TRACER, tmp: pathlib.Path | None = None,
                 record_goldens: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = SIZES[size]
        self.tracer = tracer
        self.tmp = tmp
        self.ops: list[Op] = []
        self.reuse_s: list[float] = []  # reuse answers that are not ops
        self.checks: list[tuple[Op, object]] = []
        self.goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
        self.record_goldens = record_goldens
        self.recorded: dict[str, dict] = {}
        self.extra: dict = {}
        self.peak_rss_mb = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.probes: list[float] = []
        self.setup_times: list[tuple[float, float]] = []  # (raw, scaled) seconds
        self._spawn = None
        self._probe_at = 0.0
        self._paused = 0.0  # probe and spawn seconds, left out of the op phase

    def _pause(self, fn) -> None:
        t0 = time.perf_counter()
        fn()
        self._paused += time.perf_counter() - t0

    def probe(self) -> float:
        """Time the host-speed kernel; returns its seconds."""
        self._pause(lambda: self.probes.append(calibrate.kernel_s()))
        self._probe_at = time.perf_counter()
        return self.probes[-1]

    def _setup_spawn(self) -> None:
        """One cold set-up, scaled by probes taken right before and after it."""
        before = self.probe()
        t0 = time.perf_counter()
        raw = self._spawn()
        self._paused += time.perf_counter() - t0
        speed = (before + self.probe()) / 2
        self.setup_times.append((raw, raw * calibrate.REFERENCE_S / speed))

    def start_phase(self, cpu_clock=time.process_time, spawn=None) -> None:
        """Start timing the op phase (wall, and CPU of the process doing the work).

        ``spawn() -> seconds`` is one cold set-up; with tracing off the run
        spreads ``setup_spawns`` of them over the op phase, between ops, so
        they see the same host as the ops and the speed probes.
        """
        self._spawn = None if self.tracer.enabled else spawn
        self.probe()
        self._phase = (cpu_clock, cpu_clock(), time.perf_counter(), self._paused)

    def _between_ops(self) -> None:
        now = time.perf_counter()
        if now - self._probe_at >= PROBE_EVERY_S:
            self.probe()
        n = self.size["setup_spawns"]
        if (self._spawn is not None and len(self.setup_times) < n
                and now - self._phase[2] >= len(self.setup_times) * self.seconds / n):
            self._setup_spawn()

    def end_phase(self) -> None:
        cpu_clock, c0, t0, paused0 = self._phase
        self.wall_s = time.perf_counter() - t0 - (self._paused - paused0)
        self.cpu_s = cpu_clock() - c0
        while self._spawn is not None and len(self.setup_times) < self.size["setup_spawns"]:
            self._setup_spawn()
        self.probe()

    @property
    def scale(self) -> float:
        """Factor from this run's seconds to seconds on the reference host."""
        return calibrate.REFERENCE_S / statistics.fmean(self.probes)

    # -- timing -------------------------------------------------------------
    def timed(self, op: Op, fn):
        """Run ``fn`` as one op; an exception marks the op failed."""
        self._between_ops()
        self.tracer.op = len(self.ops)
        self.ops.append(op)
        value = None
        t0 = time.perf_counter()
        try:
            with self.tracer.span("op"):
                value = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            op.failed = f"{type(exc).__name__}: {exc}"
        op.latency_s = time.perf_counter() - t0
        return value

    def reuse(self, fn):
        """Call ``fn`` (a request the program answers from a memo) and time it.

        In-process workloads have no service to resubmit to; their reuse
        answer is the homogeneous optimum the saving needs after each
        search, which the runner has already scanned.  Not an op.
        """
        t0 = time.perf_counter()
        value = fn()
        self.reuse_s.append(time.perf_counter() - t0)
        return value

    def check(self, op: Op, fn) -> None:
        """Defer ``fn() -> failure reason | None`` until the op phase is over."""
        self.checks.append((op, fn))

    def golden(self, label: str, counts, digest: str) -> str | None:
        """Compare (or record) one op's best counts and sequence digest."""
        if self.seed != DEFAULT_SEED:
            return None
        label = f"{self.workload}|{label}"
        entry = {"best": list(map(int, counts)) if counts is not None else None,
                 "digest": digest}
        if self.record_goldens:
            self.recorded[label] = entry
            return None
        want = self.goldens.get(label)
        if want is None:
            return (f"no golden for {label} (goldens.json covers the op lists of "
                    f"--seconds 10 at the paper size)")
        if want != entry:
            return f"golden mismatch for {label}: {entry} != {want}"
        return None

    def run_checks(self) -> None:
        for op, fn in self.checks:
            if op.failed is not None:
                continue
            try:
                reason = fn()
            except Exception as exc:  # noqa: BLE001 - a failed check fails the op
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                op.failed = reason
        if self.recorded:
            merged = dict(self.goldens)
            merged.update(self.recorded)
            GOLDENS.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")

    # -- summary ------------------------------------------------------------
    def metrics(self) -> dict:
        """End-to-end figures, scaled to the reference host, and ``raw`` ones.

        ``raw`` holds every timing as this host measured it, unscaled, so a
        comparison can be made on both.
        """
        done = [op for op in self.ops if op.failed is None]
        searches = sorted(op.latency_s for op in done if op.kind == "search")
        hits = [op.latency_s for op in done if op.kind == "hit"] + self.reuse_s
        completed = sum(op.kind != "setup" for op in done)  # set-ups only take wall time
        savings = [op.saving_pct for op in done if op.kind == "search" and op.saving_pct is not None]
        explore = [op.explore_usd for op in done if op.kind == "search" and op.explore_usd is not None]
        kept = self.setup_times[1:]  # the first spawn warms the page cache
        raw = {
            "setup_s": statistics.median(t[0] for t in kept) if kept else 0.0,
            "op_p50_s": statistics.median(searches) if searches else 0.0,
            "op_tail_s": percentile(searches, TAIL_PERCENTILE),
            "ops_per_s": completed / self.wall_s,
            "hit_p50_s": statistics.median(hits) if hits else 0.0,
        }
        scale = self.scale
        return {
            "setup_s": statistics.median(t[1] for t in kept) if kept else 0.0,
            "op_p50_s": scale * raw["op_p50_s"],
            "op_tail_s": scale * raw["op_tail_s"],
            "ops_per_s": raw["ops_per_s"] / scale,
            "hit_p50_s": scale * raw["hit_p50_s"],
            "saving_pct": statistics.fmean(savings) if savings else 0.0,
            "explore_usd": statistics.fmean(explore) if explore else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
            "raw": raw,
            "attempted": len(self.ops),
            "failed": sum(op.failed is not None for op in self.ops),
            "failures": [f"{op.label}: {op.failed}" for op in self.ops if op.failed][:10],
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "scale": scale,
            "probes": len(self.probes),
            "n_search": len(searches),
            "n_hit": len(hits),
        }


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# paper-search: one default Ribbon search per paper model on a fresh trace.
# ---------------------------------------------------------------------------
def paper_search(run: Run) -> None:
    from repro import Scenario

    size = run.size
    n_ops = len(MODELS) * max(1, round(run.seconds * PAPER_SEARCH_ROUNDS_PER_S))
    run.start_phase(spawn=cold_import_s)
    for i in range(n_ops):
        model = MODELS[i % len(MODELS)]
        s = 1000 * run.seed + i
        # A fresh trace per op, pinned to the op index: the workload seed
        # moves only the search seeds, so runs with different seeds differ
        # in what the searches do, not in how hard their traces are.
        scn = Scenario(model).with_workload(seed=i + 1)
        if size is SIZES["tiny"]:
            scn = scn.with_workload(n_queries=size["queries"]).with_budget(
                max_samples=size["samples"])
        label = f"{model}|q{scn.workload.n_queries}|n{scn.budget.max_samples}|t{i + 1}|s{s}"

        def search(scn=scn, s=s):
            r = scn.runner()
            return r, r.run("ribbon", seed=s, start=r.default_start(seed=s))

        op = Op("search", label, strategy="ribbon")
        out = run.timed(op, search)
        if out is None:
            continue
        runner, result = out
        homog = run.reuse(lambda: runner.homogeneous_optimum(seed=s))
        op.explore_usd = result.exploration_cost_dollars
        if result.best is not None:
            op.saving_pct = 100.0 * (1.0 - result.best_cost / homog.cost_per_hour)
        run.check(op, _search_check(run, label, runner.materialize(s), result))
    run.end_phase()


def _search_check(run: Run, label: str, mat, result):
    def check():
        if result.best is None:
            return "search returned no QoS-meeting pool"
        best = result.best
        scn = mat.scenario
        reason = resimulate(
            mat.model, mat.trace, best.pool.families, best.pool.counts,
            scn.qos_target_ms, scn.qos.rate_target, best.qos_rate,
            best.cost_per_hour, mat.space.catalog,
        )
        digest = history_digest(r.pool.counts for r in result.history)
        return reason or run.golden(label, best.pool.counts, digest)
    return check


# ---------------------------------------------------------------------------
# fig10-sweep: Fig. 10 regenerated the way ``repro-ribbon fig10`` does it.
# ---------------------------------------------------------------------------
def fig10_sweep(run: Run) -> None:
    from repro.analysis.experiments import (
        COMPARISON_METHODS,
        ExperimentSetting,
        default_strategies,
        make_experiment,
    )

    size = run.size
    n_blocks = max(1, round(run.seconds / FIG10_SECONDS_PER_MODEL))
    budget = size["fig10_budget"]
    names = [name for name, _ in COMPARISON_METHODS]
    run.start_phase(spawn=cold_import_s)
    for j in range(n_blocks):
        model = MODELS[j % len(MODELS)]
        # The figure's traces (ExperimentSetting's seed, as the CLI uses);
        # the workload seed picks the search seeds.
        setting = ExperimentSetting(n_queries=size["queries"], seed=1 + j // len(MODELS))
        base = f"{model}|q{setting.n_queries}|k{setting.seed}|b{budget}"

        def setup(model=model, setting=setting):
            exp = make_experiment(model, setting)
            return exp, exp.default_start()

        out = run.timed(Op("setup", base + "|setup"), setup)
        if out is None:
            continue
        exp, start = out
        # The CLI's search seeds 0, 1, ..., except that the last one follows
        # the workload seed: most of the figure (and its simulation-heavy
        # first seed) is the same in every run, so runs differ by host
        # noise more than by which searches they happened to draw.
        n_seeds = size["fig10_seeds"]
        for t in [*range(n_seeds - 1), n_seeds - 1 + n_seeds * run.seed]:
            for name, strat in zip(names, default_strategies(max_samples=budget, seed=t)):
                label = f"{base}|{name}|s{t}"
                op = Op("search", label, strategy=name)
                result = run.timed(op, lambda strat=strat: strat.search(exp.evaluator, start=start))
                if result is None:
                    continue
                homog = run.reuse(lambda: exp.runner.homogeneous_optimum(seed=setting.seed))
                op.explore_usd = result.exploration_cost_dollars
                if result.best is not None:
                    op.saving_pct = 100.0 * (1.0 - result.best_cost / homog.cost_per_hour)
                run.check(op, _search_check(run, label, exp, result))
    run.end_phase()


# ---------------------------------------------------------------------------
# service-jobs: the REST daemon as a child process, driven over HTTP.
# ---------------------------------------------------------------------------
def service_plan(seed: int, n_ops: int) -> list[tuple]:
    """The op list: ("fresh", scenario index, search seed) or (kind, op ref).

    The first op of each scenario is fresh; after that the kinds follow a
    fixed period (:data:`SERVICE_PATTERN`), and the seed picks which
    scenario a fresh op searches and which earlier fresh job a reuse or
    fork op refers to.
    """
    rng = random.Random(seed)
    n_scenarios = len(SERVICE_MODELS) * SERVICE_TRACES_PER_MODEL
    plan: list[tuple] = []
    fresh: list[int] = []
    for i in range(n_ops):
        kind = "fresh" if i < n_scenarios else SERVICE_PATTERN[i % len(SERVICE_PATTERN)]
        if kind == "fresh":
            scenario = i if i < n_scenarios else rng.randrange(n_scenarios)
            plan.append(("fresh", scenario, 1000 * seed + i))
            fresh.append(i)
        else:
            plan.append((kind, rng.choice(fresh)))
    return plan


def service_scenarios(size: dict) -> list:
    """The pinned-trace scenarios; only the search seeds follow the workload seed."""
    from repro.api.scenario import EvaluationBudget, Scenario, WorkloadSpec

    return [
        Scenario(
            model,
            workload=WorkloadSpec(n_queries=size["svc_queries"], seed=10 * m + w + 1),
            budget=EvaluationBudget(max_samples=size["svc_samples"]),
        )
        for m, model in enumerate(SERVICE_MODELS)
        for w in range(SERVICE_TRACES_PER_MODEL)
    ]


class Daemon:
    """``repro-ribbon serve`` as a child process on an ephemeral port."""

    def __init__(self, snapshot_dir: pathlib.Path, trace_out: pathlib.Path | None = None):
        here = pathlib.Path(__file__).resolve().parent
        serve = ["serve", "--port", "0", "--snapshot-dir", str(snapshot_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(here / "daemon.py"), str(trace_out), *serve]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=child_env(), text=True,
        )
        self.url = None
        for line in self.proc.stdout:
            if "listening on " in line:
                self.url = line.split("listening on ", 1)[1].strip()
                break
        try:
            if self.url is None:
                raise RuntimeError("service daemon exited before listening")
            _get_bytes(self.url + "/health")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.t_spawn

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used so far (all threads)."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    BLAS is held to one thread: OpenBLAS otherwise spins a second thread
    on the GP's small matrices, which costs a core and makes timings track
    whatever else the host runs.
    """
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_import_s() -> float:
    """Seconds from spawning an interpreter until ``import repro`` is done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import repro; print('ready')"],
        stdout=subprocess.PIPE, env=child_env(), text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError("cold import failed")
    return elapsed


def cold_daemon_s(tmp: pathlib.Path) -> float:
    """Seconds from spawning ``repro-ribbon serve`` until ``/health`` answers."""
    snaps = tmp / f"setup-{time.perf_counter_ns()}"
    daemon = Daemon(snaps)
    daemon.stop()
    shutil.rmtree(snaps, ignore_errors=True)
    return daemon.ready_s


def _get_bytes(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.read()


def service_jobs(run: Run) -> None:
    from repro.service import ServiceClient

    size = run.size
    scenarios = service_scenarios(size)
    plan = service_plan(run.seed, max(2 * len(scenarios), round(run.seconds * SERVICE_OPS_PER_S)))
    trace_out = run.tmp / "daemon-trace.json" if run.tracer.enabled else None
    daemon = Daemon(run.tmp / "snapshots", trace_out)
    client = ServiceClient(daemon.url, timeout=60)
    span = run.tracer.span
    jobs: dict[int, dict] = {}  # op index -> job facts
    snapshots: list[dict] = []

    def follow(job_id: str) -> bytes:
        last = None
        with span("http.stream"):
            for snap in client.stream(job_id):
                last = snap
        if last is None or last["state"] != "done":
            raise RuntimeError(f"job {job_id} ended {last and last['state']}: {last and last['error']}")
        snapshots.append(last)
        with span("http.get_result"):
            return _get_bytes(f"{daemon.url}/jobs/{job_id}/result")

    def fresh(scn, s):
        with span("http.post_jobs"):
            job = client.submit(scn, "ribbon", seed=s)
        return job["id"], follow(job["id"])

    def fork(parent_id):
        with span("http.post_fork"):
            job = client.fork(parent_id, load_factor=SERVICE_FORK_LOAD)
        return job["id"], follow(job["id"])

    def reuse(scn, s, original_id):
        with span("http.post_jobs"):
            job = client.submit(scn, "ribbon", seed=s)
        if job["id"] != original_id or job["state"] != "done":
            raise RuntimeError(f"resubmission was not answered by reuse ({job['id']}, {job['state']})")
        with span("http.get_result"):
            return job["id"], _get_bytes(f"{daemon.url}/jobs/{job['id']}/result")

    def label(scn, s):
        wl = scn.workload
        return f"{scn.model}|q{wl.n_queries}|w{wl.seed}|s{s}|lf{wl.load_factor:g}"

    try:
        run.start_phase(daemon.cpu_s, spawn=lambda: cold_daemon_s(run.tmp))
        for i, step in enumerate(plan):
            if step[0] == "fresh":
                scn, s = scenarios[step[1]], step[2]
                op = Op("search", label(scn, s), strategy="ribbon")
                out = run.timed(op, lambda scn=scn, s=s: fresh(scn, s))
            else:
                parent = jobs.get(step[1])
                if parent is None:
                    continue  # the parent job failed and is counted already
                scn, s = parent["scenario"], parent["seed"]
                if step[0] == "reuse":
                    op = Op("hit", label(scn, s) + "|reuse")
                    out = run.timed(op, lambda scn=scn, s=s, p=parent: reuse(scn, s, p["id"]))
                    if out is not None:
                        run.check(op, lambda p=parent, body=out[1]: None if body == p["body"]
                                  else "reuse answer differs from the original result")
                    continue
                scn = scn.with_workload(load_factor=SERVICE_FORK_LOAD)
                op = Op("search", label(scn, s), strategy="ribbon")
                out = run.timed(op, lambda p=parent: fork(p["id"]))
            if out is not None:
                jobs[i] = {"scenario": scn, "seed": s, "id": out[0], "body": out[1], "op": op}
        run.end_phase()
        run.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    run.extra["jobs"] = snapshots
    run.extra["reuse_hits"] = sum(op.kind == "hit" and op.failed is None for op in run.ops)
    if trace_out is not None:
        run.extra["daemon"] = json.loads(trace_out.read_text())
    results = run.tmp / "snapshots" / "results"
    run.extra["store_bytes"] = sum(p.stat().st_size for p in results.glob("*.ndjson"))
    homog: dict = {}
    for facts in jobs.values():
        _service_outputs(run, facts, homog)


def _service_outputs(run: Run, facts: dict, homog: dict) -> None:
    """Saving, exploration cost and the deferred checks of one job."""
    from repro.api.runner import ScenarioRunner
    from repro.simulator.result_cache import SimulationResultCache
    from repro.workload.trace import trace_for_model

    op, scn, seed = facts["op"], facts["scenario"], facts["seed"]
    result = json.loads(facts["body"])["result"]
    best = result["best"]
    op.explore_usd = result["exploration_cost_dollars"]
    key = (scn, scn.trace_seed(seed))
    if key not in homog:
        runner = ScenarioRunner(scn, simulation_cache=SimulationResultCache(maxsize=0))
        homog[key] = runner.homogeneous_optimum(seed=seed).cost_per_hour
    if best is not None:
        op.saving_pct = 100.0 * (1.0 - best["cost_per_hour"] / homog[key])

    def check():
        if best is None:
            return "job returned no QoS-meeting pool"
        wl = scn.workload
        trace = trace_for_model(scn.profile, n_queries=wl.n_queries, seed=scn.trace_seed(seed),
                                load_factor=wl.load_factor, gaussian=wl.gaussian)
        reason = resimulate(scn.profile, trace, best["families"], best["counts"],
                            scn.qos_target_ms, scn.qos.rate_target, best["qos_rate"],
                            best["cost_per_hour"], scn.profile.catalog)
        digest = history_digest(h["counts"] for h in result["history"])
        return reason or run.golden(op.label, best["counts"], digest)

    run.check(op, check)


WORKLOADS = {
    "paper-search": paper_search,
    "fig10-sweep": fig10_sweep,
    "service-jobs": service_jobs,
}


def layer_extras(run: Run) -> dict[str, float]:
    """Per-layer metrics read from op records and job snapshots."""
    out: dict[str, float] = {}
    for name in ("ribbon", "hill-climb", "random", "rsm"):
        out[f"strategy.{name}.s"] = sum(
            op.latency_s for op in run.ops if op.kind == "search" and op.strategy == name)
    out["experiment.setup_s"] = sum(op.latency_s for op in run.ops if op.kind == "setup")
    jobs = run.extra.get("jobs", [])
    waits = [j["started_at"] - j["submitted_at"] for j in jobs]
    runs = [j["finished_at"] - j["started_at"] for j in jobs]
    out["jobs.queue_wait_s"] = statistics.median(waits) if waits else 0.0
    out["jobs.run_s"] = statistics.median(runs) if runs else 0.0
    out["jobs.reuse_hits"] = run.extra.get("reuse_hits", 0)
    out["store.bytes"] = run.extra.get("store_bytes", 0)
    return out
