"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-search --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, plus the tracing overhead against an untraced run of the same ops.
The line before it records the host (steal time, load average, versions)
and the unscaled end-to-end timings.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
import uuid
from importlib import metadata

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where traced runs leave their spans (one JSON line per span).
SPANS = ROOT / ".perfbench_spans"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402

WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "hit_p50_s": "s",
    "peak_rss_mb": "MB",
    "saving_pct": "%",
    "explore_usd": "USD",
}
#: Packages whose cumulative import time a traced run reports.
IMPORTS = ("repro.gp", "scipy.stats", "numpy")


def host_sample() -> dict:
    """Steal jiffies and the 1-minute load average right now."""
    steal = None
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        steal = int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except OSError:
        pass
    return {"steal_jiffies": steal, "loadavg_1m": os.getloadavg()[0], "t": time.time()}


def host_record(start: dict, end: dict) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    steal = (end["steal_jiffies"] - start["steal_jiffies"]
             if None not in (start["steal_jiffies"], end["steal_jiffies"]) else None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "steal_jiffies": steal,
        "loadavg_1m_start": start["loadavg_1m"],
        "loadavg_1m_end": end["loadavg_1m"],
        "wall_s": end["t"] - start["t"],
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def import_times() -> dict[str, float]:
    """Cumulative ``-X importtime`` seconds of the packages in IMPORTS."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        capture_output=True, env=workloads.child_env(), cwd=ROOT, text=True, timeout=60,
    )
    out = dict.fromkeys(IMPORTS, 0.0)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in out:
            out[parts[2].strip()] = int(parts[1]) / 1e6
    return {f"setup.import.{pkg}_s": value for pkg, value in out.items()}


def worker(args, trace: int, tmp: pathlib.Path) -> dict:
    wtmp = tmp / f"worker-{trace}"
    wtmp.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--size", args.size, "--tmp", str(wtmp),
    ]
    if args.record_goldens:
        cmd.append("--record-goldens")
    if trace:
        SPANS.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(SPANS / f"{args.workload}-seed{args.seed}.jsonl")]
    # A session of its own, so a timeout can stop the worker together with
    # the processes it started (the daemon, cold spawns).
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=workloads.child_env(), cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="paper",
                        help="problem size (tiny: the self-test smoke)")
    parser.add_argument("--record-goldens", action="store_true",
                        help="rewrite this workload's goldens (default seed only)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    tmp.mkdir(parents=True)
    start = host_sample()
    try:
        runs = [worker(args, 0, tmp)]
        if args.trace:
            runs.append(worker(args, 1, tmp))
            imports = import_times()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    host = host_record(start, host_sample())
    for key in ("wall_s", "cpu_s", "n_search", "n_hit"):
        host[f"op_{key}"] = runs[0][key]
    host["speed_scale"] = runs[0]["scale"]
    host["speed_probes"] = runs[0]["probes"]
    host["raw"] = runs[0]["raw"]
    print(json.dumps({"host": host}))

    failures = [f for r in runs for f in r["failures"]]
    for failure in failures:
        print(f"failed op: {failure}", file=sys.stderr)
    if args.trace:
        untraced, traced = runs
        values = dict(traced["layers"], **imports)
        values["trace.ops_per_s"] = traced["ops_per_s"]
        values["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
        values["trace.overhead_pct"] = 100.0 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1.0)
        units = PER_LAYER_UNITS
    else:
        values = runs[0]
        units = END_TO_END_UNITS
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
