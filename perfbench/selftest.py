"""Self-test of the benchmark: a tiny-size smoke of every workload.

Usage (from the repository root; about a minute)::

    python3 perfbench/selftest.py

For each workload it runs the benchmark twice untraced and once traced at
the ``tiny`` size and asserts that every metric of ``BENCHMARK.json`` is
printed with its unit, that no op failed, that the deterministic
metrics (``saving_pct``, ``explore_usd``) are identical across the two
untraced runs, and that the traced run wrote its spans.  It also checks
that the benchmark refuses to run, without printing a result, in a
directory holding only the benchmark's own files.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("saving_pct", "explore_usd")


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (out, proc.stderr)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}, sorted(out["metrics"])
    for m in wanted:
        metric = out["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], (m["name"], metric)
        assert isinstance(metric["value"], (int, float)), (m["name"], metric)
    return out["metrics"]


def check_workload(workload: str) -> None:
    first, second = result(workload, 0), result(workload, 0)
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], (workload, name)
    for m in SPEC["end_to_end"]:
        assert first[m["name"]]["value"] > 0, (workload, m["name"], first[m["name"]])
    spans = ROOT / ".perfbench_spans" / f"{workload}-seed1.jsonl"
    spans.unlink(missing_ok=True)
    result(workload, 1)
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert "op" in names and len(names) > 1, (workload, names)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        workload = SPEC["workloads"][0]["name"]
        proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_bare_directory()
    print("bare directory: refused")
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_workload(workload)
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
