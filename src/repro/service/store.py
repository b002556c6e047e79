"""Append-only snapshot store: scenarios and results that survive the daemon.

The optimization service persists two things, keyed by the frozen
:meth:`~repro.api.scenario.Scenario.identity` content hash:

* ``scenarios/<identity>.json`` — the scenario spec (the
  :meth:`~repro.api.scenario.Scenario.to_dict` document), written once
  through an atomic rename and rewritten only if it does not parse;
* ``results/<identity>.ndjson`` — one JSON line per completed job
  (strategy, seed, timestamps, fork lineage, and the full serialized
  :class:`~repro.core.result.SearchResult`), append-only.

The layout follows the ``BENCH_*.json`` artifact idiom
(:mod:`benchmarks._artifact`): pinned specs are seeded once, recordings
only ever append, so a restarted daemon replays the whole job history —
warm restart — and a re-submitted identical scenario is answered from the
store instead of re-searching.

Serialization helpers (:func:`search_result_to_dict`,
:func:`record_to_dict`) live here too: they are the one place the service
flattens pipeline objects into JSON, shared by the job manager, the HTTP
layer, and the throughput bench.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from typing import Any

from repro.api.scenario import Scenario
from repro.core.evaluator import EvaluationRecord
from repro.core.result import SearchResult

__all__ = [
    "SnapshotStore",
    "record_to_dict",
    "search_result_to_dict",
]


def record_to_dict(record: EvaluationRecord) -> dict:
    """One :class:`EvaluationRecord` as a JSON-ready dict."""
    return {
        "families": list(record.pool.families),
        "counts": list(record.pool.counts),
        "qos_rate": record.qos_rate,
        "cost_per_hour": record.cost_per_hour,
        "objective": record.objective,
        "meets_qos": record.meets_qos,
        "sample_index": record.sample_index,
        "p99_ms": record.p99_ms,
        "mean_queue_length": record.mean_queue_length,
    }


def search_result_to_dict(result: SearchResult) -> dict:
    """A :class:`SearchResult` as a JSON-ready dict (history included)."""
    return {
        "method": result.method,
        "converged": result.converged,
        "n_samples": result.n_samples,
        "n_violating_samples": result.n_violating_samples,
        "best": record_to_dict(result.best) if result.best is not None else None,
        "best_cost": result.best_cost,
        "exploration_cost_dollars": result.exploration_cost_dollars,
        "exhaustive_cost_dollars": result.exhaustive_cost_dollars,
        "history": [record_to_dict(r) for r in result.history],
        "metadata": {str(k): _jsonable(v) for k, v in result.metadata.items()},
    }


def _jsonable(value: Any) -> Any:
    """Best-effort JSON projection of one metadata value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class SnapshotStore:
    """Filesystem-backed scenario/result snapshots for warm restarts.

    Parameters
    ----------
    root:
        Snapshot directory; created (with its ``scenarios/`` and
        ``results/`` subdirectories) if missing.

    Appends are serialized under one lock, so concurrent job-completion
    threads never interleave half-written lines; reads tolerate a torn
    final line (a crash mid-append loses only that line, never history).
    """

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)
        self._scenarios = self.root / "scenarios"
        self._results = self.root / "results"
        self._scenarios.mkdir(parents=True, exist_ok=True)
        self._results.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # -- paths ------------------------------------------------------------------
    def scenario_path(self, scenario: Scenario) -> pathlib.Path:
        return self._paths(scenario.identity())[0]

    def results_path(self, scenario: Scenario) -> pathlib.Path:
        return self._paths(scenario.identity())[1]

    def _paths(self, identity: str) -> tuple[pathlib.Path, pathlib.Path]:
        """The spec and the results file of a scenario identity."""
        return (
            self._scenarios / f"{identity}.json",
            self._results / f"{identity}.ndjson",
        )

    # -- writes -----------------------------------------------------------------
    def save_scenario(self, scenario: Scenario) -> pathlib.Path:
        """Persist the scenario spec (identical re-saves of a readable spec
        no-op).

        The spec is written to a temp file and renamed over ``path``, so a
        crash or a full disk leaves either no spec or a whole one.  A spec
        that exists but does not parse (torn before this was atomic) is
        rewritten: :meth:`iter_results` skips every result whose spec does
        not parse.
        """
        return self._save_spec(scenario, self.scenario_path(scenario))

    def _save_spec(self, scenario: Scenario, path: pathlib.Path) -> pathlib.Path:
        with self._lock:
            try:
                json.loads(path.read_text())
            except (OSError, ValueError):
                tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
                tmp.write_text(
                    json.dumps(scenario.to_dict(), indent=1, sort_keys=True)
                    + "\n"
                )
                os.replace(tmp, path)
        return path

    def append_result(self, scenario: Scenario, job_record: dict) -> pathlib.Path:
        """Append one completed-job record under the scenario's identity.

        ``job_record`` is the job manager's JSON view of a finished job
        (id, strategy, seed, timestamps, fork lineage, serialized result).
        The scenario spec is saved alongside on first append.
        """
        spec_path, path = self._paths(scenario.identity())
        self._save_spec(scenario, spec_path)
        line = json.dumps(job_record, sort_keys=True)
        with self._lock:
            with path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return path

    # -- reads ------------------------------------------------------------------
    def iter_results(self):
        """Yield ``(scenario_dict, job_record)`` for every stored result.

        Records stream in (identity, append) order; a scenario whose spec
        file is missing or a torn/corrupt trailing line is skipped rather
        than poisoning the warm restart.
        """
        for results_path in sorted(self._results.glob("*.ndjson")):
            spec_path = self._scenarios / (results_path.stem + ".json")
            if not spec_path.exists():
                continue
            try:
                scenario_dict = json.loads(spec_path.read_text())
            except ValueError:
                continue
            with results_path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        yield scenario_dict, json.loads(line)
                    except ValueError:
                        continue  # torn trailing line from a crash mid-append

    def stats(self) -> dict:
        """Store shape for the service's /stats endpoint."""
        n_results = 0
        for path in self._results.glob("*.ndjson"):
            with path.open("r", encoding="utf-8") as fh:
                n_results += sum(1 for line in fh if line.strip())
        return {
            "root": str(self.root),
            "n_scenarios": sum(1 for _ in self._scenarios.glob("*.json")),
            "n_results": n_results,
        }
