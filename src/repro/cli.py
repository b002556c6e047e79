"""Command-line interface: regenerate paper experiments from the shell.

Examples::

    repro-ribbon fig9                 # cost savings per model
    repro-ribbon fig4                 # the diverse-pool opportunity example
    repro-ribbon search MT-WND        # run Ribbon on one model
    repro-ribbon search DIEN --method hill-climb
    repro-ribbon strategies           # list the registered strategies
    repro-ribbon fig10 --models MT-WND DIEN
    repro-ribbon serve --port 8765 --snapshot-dir ./snapshots
    repro-ribbon lint src/               # project-invariant static analysis

Every figure/table of the paper's evaluation has a matching subcommand; the
heavy experiments accept ``--queries`` and ``--seeds`` to trade fidelity for
runtime.  ``search`` picks its algorithm by name from the strategy registry
(``--method``), so a strategy registered with
:func:`repro.api.register_strategy` is immediately runnable from the shell.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.analysis.experiments import (
    ExperimentSetting,
    cost_savings_experiment,
    make_experiment,
    mean_samples_to_saving,
    search_comparison,
)
from repro.analysis.reporting import ascii_bar_chart, ascii_table
from repro.api import (
    ScenarioError,
    UnknownStrategyError,
    available_strategies,
    make_strategy,
    strategy_class,
    strategy_options,
)

ALL_MODELS = ("CANDLE", "ResNet50", "VGG19", "MT-WND", "DIEN")


def _cmd_fig9(args: argparse.Namespace) -> int:
    setting = ExperimentSetting(n_queries=args.queries, gaussian_batches=args.gaussian)
    rows = cost_savings_experiment(tuple(args.models), setting)
    print(
        ascii_table(
            ["model", "homogeneous", "$/hr", "heterogeneous", "$/hr", "saving"],
            [
                (
                    r.model,
                    r.homogeneous_pool,
                    f"{r.homogeneous_cost:.3f}",
                    r.heterogeneous_pool,
                    f"{r.heterogeneous_cost:.3f}",
                    f"{r.saving_percent:.1f}%",
                )
                for r in rows
            ],
            title="Fig. 9 — cost saving of optimal heterogeneous configuration",
        )
    )
    print()
    print(
        ascii_bar_chart(
            [r.model for r in rows],
            [r.saving_percent for r in rows],
            unit="%",
        )
    )
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.models.zoo import get_model
    from repro.simulator.engine import InferenceServingSimulator
    from repro.simulator.pool import PoolConfiguration
    from repro.workload.trace import trace_for_model

    model = get_model("MT-WND")
    trace = trace_for_model(model, n_queries=args.queries, seed=args.seed)
    sim = InferenceServingSimulator(model)
    rows = []
    for g, t in [(4, 0), (5, 0), (0, 12), (3, 4), (2, 4), (4, 4)]:
        pool = PoolConfiguration(("g4dn", "t3"), (g, t))
        res = sim.simulate(trace, pool)
        rate = res.qos_satisfaction_rate(model.qos_target_ms)
        rows.append(
            (
                f"({g} + {t})",
                f"{pool.hourly_cost():.3f}",
                f"{100 * rate:.2f}%",
                "meets" if rate >= 0.99 else "violates",
            )
        )
    print(
        ascii_table(
            ["config (g4dn + t3)", "cost $/hr", "QoS sat. rate", "verdict"],
            rows,
            title="Fig. 4 — MT-WND diverse pool opportunity (p99 <= 20 ms)",
        )
    )
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    setting = ExperimentSetting(n_queries=args.queries)
    for name in args.models:
        exp = make_experiment(name, setting)
        comparison = search_comparison(exp, seeds=tuple(range(args.seeds)))
        max_saving = exp.max_saving_percent()
        levels = [max_saving * f for f in (0.25, 0.5, 0.75, 1.0)]
        rows = []
        for method, results in comparison.items():
            cells = [
                f"{mean_samples_to_saving(results, exp.homogeneous_cost, lvl):.1f}"
                for lvl in levels
            ]
            rows.append((method, *cells))
        print(
            ascii_table(
                ["method", *[f"{lvl:.1f}%" for lvl in levels]],
                rows,
                title=(
                    f"Fig. 10 — {name}: mean samples to reach cost-saving level "
                    f"(max {max_saving:.1f}%)"
                ),
            )
        )
        print()
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    kwargs = {"max_samples": args.samples, "seed": args.seed}
    if args.batch_size is not None and args.batch_size != 1:
        # --batch-size 1 is the sequential default, a no-op everywhere;
        # any other value goes to the strategy, whose option check refuses
        # it before the costly materialization if the constructor lacks it.
        kwargs["batch_size"] = args.batch_size
    strategy = make_strategy(args.method, **kwargs)
    setting = ExperimentSetting(n_queries=args.queries)
    exp = make_experiment(args.model, setting)
    result = strategy.search(exp.evaluator, start=exp.default_start())
    print(result.summary())
    if result.best is not None:
        saving = 100.0 * (1.0 - result.best_cost / exp.homogeneous_cost)
        print(
            f"homogeneous baseline {exp.homogeneous_optimum.pool} "
            f"${exp.homogeneous_cost:.3f}/hr -> saving {saving:.1f}%"
        )
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import JobManager, SnapshotStore, make_server

    store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    manager = JobManager(store=store, max_workers=args.workers)
    server = make_server(manager, host=args.host, port=args.port)
    # SIGTERM (a service manager's stop) and SIGINT take the same
    # clean-shutdown path instead of killing the process mid-job.  SIGINT
    # is installed explicitly because a process started with SIGINT
    # ignored (backgrounded from a non-interactive shell) gets no
    # KeyboardInterrupt from Python.  Both are installed before the
    # banner, so a client that read the banner can already stop the
    # daemon.
    previous = {
        sig: signal.signal(sig, _interrupt)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        host, port = server.server_address[:2]
        print(f"repro-ribbon service listening on http://{host}:{port}")
        if store is not None:
            restored = sum(1 for j in manager.jobs() if j.restored)
            print(f"snapshots: {store.root} ({restored} jobs restored)")
        print("endpoints: /health /stats /jobs /jobs/<id>[/result|/stream]")
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down ...")
    finally:
        # serve_forever ran (and returned) in this thread, so there is no
        # loop left for server.shutdown() to stop; calling it before the
        # loop ever started would block forever.
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
        manager.shutdown(cancel_running=True)
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    rows = []
    for name in available_strategies():
        cls = strategy_class(name)
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append((name, cls.__name__, doc[0] if doc else ""))
    print(
        ascii_table(
            ["name", "class", "description"],
            rows,
            title="registered search strategies (repro.api.register_strategy)",
        )
    )
    print()
    print("constructor options (pass as Scenario.run(...) kwargs):")
    for name in available_strategies():
        opts = ", ".join(str(opt) for opt in strategy_options(name))
        print(f"  {name}: {opts}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts: a bad value exits 2 with a usage message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ribbon",
        description="Regenerate Ribbon (SC'21) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p9 = sub.add_parser("fig9", help="cost savings per model (Fig. 9)")
    p9.add_argument("--models", nargs="+", default=list(ALL_MODELS))
    p9.add_argument("--queries", type=_positive_int, default=4000)
    p9.add_argument("--gaussian", action="store_true", help="Fig. 11 variant")
    p9.set_defaults(func=_cmd_fig9)

    p4 = sub.add_parser("fig4", help="diverse pool opportunity (Fig. 4)")
    p4.add_argument("--queries", type=_positive_int, default=4000)
    p4.add_argument("--seed", type=int, default=1)
    p4.set_defaults(func=_cmd_fig4)

    p10 = sub.add_parser("fig10", help="convergence comparison (Fig. 10)")
    p10.add_argument("--models", nargs="+", default=list(ALL_MODELS))
    p10.add_argument("--queries", type=_positive_int, default=4000)
    p10.add_argument("--seeds", type=_positive_int, default=3)
    p10.set_defaults(func=_cmd_fig10)

    ps = sub.add_parser("search", help="run one search strategy on one model")
    ps.add_argument("model")
    ps.add_argument(
        "--method",
        default="ribbon",
        help=(
            "search strategy, by registry name or alias "
            f"(default: ribbon; registered: {', '.join(available_strategies())})"
        ),
    )
    ps.add_argument("--queries", type=_positive_int, default=4000)
    ps.add_argument("--samples", type=_positive_int, default=40)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument(
        "--batch-size",
        type=_positive_int,
        default=None,
        help=(
            "proposals per BO iteration (batch-capable strategies only; "
            "default 1 = the paper's sequential schedule)"
        ),
    )
    ps.set_defaults(func=_cmd_search)

    pv = sub.add_parser(
        "serve", help="run the long-running optimization service daemon"
    )
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 picks an ephemeral port, printed at startup)",
    )
    pv.add_argument(
        "--snapshot-dir",
        default=None,
        help=(
            "directory for the append-only job store; enables warm "
            "restart and reuse of stored results (default: in-memory only)"
        ),
    )
    pv.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="concurrent search jobs (default: 2)",
    )
    pv.set_defaults(func=_cmd_serve)

    pl = sub.add_parser("strategies", help="list the registered strategies")
    pl.set_defaults(func=_cmd_strategies)

    # Listed for --help only; main() hands `lint ...` to the repro-lint
    # parser before argparse runs, so its own flags (--format, --list-rules)
    # pass through untouched.
    pt = sub.add_parser(
        "lint",
        help="run the project-invariant static analyzer (repro-lint)",
        add_help=False,
    )
    pt.add_argument("lint_args", nargs=argparse.REMAINDER)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.devtools.lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, UnknownStrategyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
