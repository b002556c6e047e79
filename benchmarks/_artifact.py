"""Shared persistence for the ``BENCH_*.json`` perf/figure artifacts.

Every benchmark that tracks a trajectory — the search-core and memo-sweep
perf benches and the figure benches — records
into one artifact format at the repo root:

* ``workload``: the pinned spec the numbers were measured on (never
  rewritten by recordings);
* ``golden``: recorded result sequences the bit-identical contracts
  replay against (never rewritten by recordings);
* ``baseline_*``: the reference timing a speedup is computed against,
  with the host it was recorded on;
* ``current``: the latest recording;
* ``history``: append-only list of every recording, so re-anchors can
  spot drift per bench/figure rather than only against the latest run.

A run records (rewrites ``current`` and appends to ``history``) only when
it is asked to with ``BENCH_RECORD=1``, as the CI steps that upload the
artifacts are; a plain local run checks its goldens and leaves the
committed file untouched.

:class:`BenchArtifact` wraps the read/record/enforce cycle; speedup
enforcement follows the suite's convention — wall-clock ratios are only
comparable on the host that recorded the baseline, so targets are asserted
there by default and anywhere ``BENCH_ENFORCE_SPEEDUP=1`` forces them
(``=0`` disables everywhere, e.g. in CI smoke).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent


class BenchArtifact:
    """One ``BENCH_<name>.json`` artifact at the repo root."""

    def __init__(self, filename: str):
        self.path = _ROOT / filename
        self.data: dict = (
            json.loads(self.path.read_text()) if self.path.exists() else {}
        )

    @property
    def workload(self) -> dict:
        """The pinned workload spec the artifact's numbers refer to."""
        return self.data["workload"]

    @property
    def golden(self) -> dict:
        """Recorded golden sequences (bit-identical replay targets)."""
        return self.data["golden"]

    def baseline(self, key: str) -> dict:
        return self.data[key]

    def record(self, **fields) -> dict:
        """One recording, stamped with date + host, written only under
        ``BENCH_RECORD=1``.

        A written recording becomes ``current`` and is appended to the
        append-only ``history`` so every prior measurement stays
        comparable.
        """
        stamped = {
            "recorded_at": time.strftime("%Y-%m-%d"),
            "host": platform.node(),
            **fields,
        }
        if os.environ.get("BENCH_RECORD") == "1":
            self.data["current"] = stamped
            self.data.setdefault("history", []).append(stamped)
            self.write()
        return stamped

    def write(self) -> None:
        self.path.write_text(json.dumps(self.data, indent=1) + "\n")

    def ensure_section(self, key: str, value) -> None:
        """Seed a section (e.g. ``workload`` or ``golden``) on first run;
        existing content is never overwritten."""
        if key not in self.data:
            self.data[key] = value
            self.write()

    def enforce_speedup(
        self, speedup: float, target: float, *, baseline_host: str, label: str
    ) -> None:
        """Assert ``speedup >= target`` on the baseline's recording host.

        ``BENCH_ENFORCE_SPEEDUP=1`` forces the assertion on any host,
        ``=0`` disables it everywhere (CI smoke does this: wall-clock
        ratios against a baseline recorded elsewhere are meaningless).
        """
        enforce = os.environ.get("BENCH_ENFORCE_SPEEDUP")
        if enforce is None:
            enforce = "1" if platform.node() == baseline_host else "0"
        if enforce != "0":
            assert speedup >= target, (
                f"{label}: measured {speedup:.2f}x against a target of "
                f"{target:g}x"
            )
