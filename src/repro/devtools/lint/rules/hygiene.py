"""API-hygiene rules: the small sharp edges with outsized blast radius.

* ``bare-except`` — ``except:`` swallows ``KeyboardInterrupt`` and
  ``SystemExit``; the daemon's clean-SIGINT contract (PR 6's CI smoke)
  depends on those propagating.  Catch ``Exception`` (or narrower).
* ``mutable-default`` — a mutable default argument is shared across
  calls; with evaluators and runners forked freely (PR 2's ``fork``
  lineage), call-to-call leakage corrupts sibling searches.
* ``print-call`` — the library is embedded (daemon, CI benches, sweep
  workers); stray stdout corrupts the NDJSON progress stream and the
  bench artifacts.  Only the user-facing CLIs may print.
* ``private-import`` — a ``_``-prefixed module or name of another
  package is its internals and may change in any release; depending on
  one needs a reasoned suppression (and, on a hot path, a self-check
  with a public fallback).
"""

from __future__ import annotations

import ast
import sys
from typing import Iterator

from repro.devtools.lint.engine import Module
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import rule

#: Modules (path suffixes) allowed to call ``print``: the user-facing CLIs.
PRINT_ALLOWED = ("repro/cli.py", "repro/devtools/lint/cli.py")

_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "collections.OrderedDict",
    "collections.defaultdict",
    "collections.deque",
    "collections.Counter",
}


@rule(
    "bare-except",
    family="hygiene",
    description="except: must name an exception type",
    rationale=(
        "a bare except swallows KeyboardInterrupt/SystemExit; the"
        " daemon's clean-SIGINT shutdown (PR 6) depends on those"
        " propagating"
    ),
)
def check_bare_except(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield module.finding(
                node,
                "bare-except",
                "bare except: catches KeyboardInterrupt/SystemExit; catch"
                " Exception or narrower",
            )


@rule(
    "mutable-default",
    family="hygiene",
    description="no mutable default argument values",
    rationale=(
        "a mutable default is shared across every call; forked"
        " evaluators/runners (PR 2) would leak state into sibling"
        " searches"
    ),
)
def check_mutable_default(module: Module) -> Iterator[Finding]:
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = [
            *func.args.defaults,
            *[d for d in func.args.kw_defaults if d is not None],
        ]
        for default in defaults:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and module.resolve(default.func) in _MUTABLE_FACTORIES
            ):
                yield module.finding(
                    default,
                    "mutable-default",
                    f"mutable default argument in {func.name!r} is shared"
                    " across calls; default to None and build inside",
                )


@rule(
    "print-call",
    family="hygiene",
    description="print only in user-facing CLI modules",
    rationale=(
        "the library runs embedded (daemon NDJSON streams, bench"
        " artifacts, sweep workers); stray stdout corrupts machine-read"
        " output"
    ),
)
def check_print_call(module: Module) -> Iterator[Finding]:
    if any(module.relpath.endswith(s) for s in PRINT_ALLOWED):
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield module.finding(
                node,
                "print-call",
                "print() outside the CLI allowlist; return/raise/log"
                " instead (stdout belongs to the CLIs)",
            )


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _private_part(dotted: str) -> str | None:
    """First private segment of an absolute import path outside ``repro``.

    A private *top-level* stdlib module (``_thread``, ``_collections_abc``)
    is the documented accelerator of its public twin and is exempt.
    """
    top, *rest = dotted.split(".")
    if top == "repro":
        return None
    if _is_private(top) and top not in sys.stdlib_module_names:
        return top
    return next((part for part in rest if _is_private(part)), None)


@rule(
    "private-import",
    family="hygiene",
    description="no imports of _-prefixed modules or names of other packages",
    rationale=(
        "a package's _-prefixed internals may change or vanish in any"
        " release; the GP hot path once rode two private SciPy names"
        " that a SciPy upgrade could break silently"
    ),
)
def check_private_import(module: Module) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for dotted in paths:
            part = _private_part(dotted)
            if part is not None:
                yield module.finding(
                    node,
                    "private-import",
                    f"import of private {part!r} ({dotted}); use the public"
                    " API or suppress with the reason it is safe",
                )
