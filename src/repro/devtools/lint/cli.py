"""repro-lint command line: ``repro-lint [paths...]``.

Exit codes: 0 clean, 1 findings, 2 usage error (a bad flag or a missing
path) — so CI can gate on the exit status while archiving the
``--format=json`` report.
"""

from __future__ import annotations

import argparse
import sys

from repro.devtools.lint import engine, registry
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
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _list_rules() -> int:
    for item in registry.all_rules():
        print(f"{item.name}  [{item.family}]")
        print(f"    {item.description}")
        print(f"    guards: {item.rationale}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    try:
        findings, checked = engine.run(args.paths)
    except FileNotFoundError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(findings, checked_files=checked))
    else:
        print(format_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
