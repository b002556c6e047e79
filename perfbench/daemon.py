"""``repro-ribbon serve`` with the benchmark's tracing wrappers installed.

Usage::

    PYTHONPATH=src python3 perfbench/daemon.py <spans.json> serve --port 0 ...

Installs the same per-layer wrappers as an in-process traced run, then
runs the CLI.  When the daemon shuts down on SIGINT the CLI returns, and
the recorded spans and cache counters are written to ``<spans.json>``.
"""

from __future__ import annotations

import json
import pathlib
import sys

import tracing


def main() -> int:
    out = pathlib.Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(sys.argv[2:])
    tracer.uninstall()
    out.write_text(json.dumps({"spans": tracer.spans, "stats": tracing.cache_stats()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
