"""Runs one workload's op phase in a fresh process and prints its figures.

Started by ``run.py``; the last line of standard output is one JSON object
with the end-to-end figures of the op phase and, with ``--trace 1``, the
per-layer metrics.  Usage::

    PYTHONPATH=src python3 perfbench/worker.py --workload paper-search \\
        --seed 1 --seconds 10 --trace 0 --tmp .perfbench_tmp/x
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource

import tracing
import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="paper")
    parser.add_argument("--tmp", type=pathlib.Path, required=True)
    parser.add_argument("--record-goldens", action="store_true")
    parser.add_argument("--spans-out", type=pathlib.Path, help="traced runs: span dump")
    args = parser.parse_args()

    in_process = args.workload != "service-jobs"
    tracer = tracing.Tracer() if args.trace else tracing.NO_TRACER
    if args.trace and in_process:
        tracing.install(tracer)
    run = workloads.Run(args.workload, args.seed, args.seconds, args.size, tracer,
                        args.tmp, args.record_goldens)
    workloads.WORKLOADS[args.workload](run)
    if in_process:
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        stats = tracing.cache_stats()
    if args.trace:
        tracer.uninstall()
    run.run_checks()
    out = run.metrics()
    if args.trace:
        span_sets, stat_sets = [tracer.spans], []
        if in_process:
            stat_sets.append(stats)
        else:
            daemon = run.extra["daemon"]
            span_sets.append([tuple(s) for s in daemon["spans"]])
            stat_sets.append(daemon["stats"])
        if args.spans_out is not None:
            tracing.write_spans(args.spans_out, span_sets)
        layers = tracing.layer_metrics(span_sets, stat_sets)
        layers.update(workloads.layer_extras(run))
        wall, covered = tracing.coverage(tracer.spans)
        layers["trace.op_wall_s"] = wall
        layers["trace.coverage_pct"] = 100.0 * covered
        # Layer times are scaled to the reference host like the end-to-end ones.
        out["layers"] = {
            name: value * run.scale if tracing.PER_LAYER_UNITS[name] in ("s", "us") else value
            for name, value in layers.items()
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
