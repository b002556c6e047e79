"""repro-lint command line: ``repro-lint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage/config error — so CI can gate
on the exit status while archiving the ``--format=json`` report.
"""

from __future__ import annotations

import argparse
import sys

from repro.devtools.lint import engine, registry
from repro.devtools.lint.config import (
    LintConfigError,
    find_pyproject,
    load_config,
)
from repro.devtools.lint.findings import format_json, format_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Project-invariant static analysis for the Ribbon reproduction"
            " (determinism, lock discipline, frozen results, API hygiene)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (text: file:line:col RULE message)",
    )
    parser.add_argument(
        "--config",
        default=None,
        metavar="PYPROJECT",
        help=(
            "pyproject.toml with [tool.repro-lint] (default: nearest one"
            " above the first path)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _list_rules() -> int:
    import repro.devtools.lint.rules  # noqa: F401  (registers all rules)

    for item in registry.all_rules():
        print(f"{item.name}  [{item.family}]")
        print(f"    {item.description}")
        print(f"    guards: {item.rationale}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    config_path = (
        args.config
        if args.config is not None
        else find_pyproject(args.paths[0])
    )
    try:
        config = load_config(config_path)
        findings, checked = engine.run(args.paths, config)
    except (LintConfigError, FileNotFoundError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(findings, checked_files=checked))
    else:
        print(format_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
