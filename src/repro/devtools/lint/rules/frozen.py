"""Frozen-result hygiene: a cached ``SimulationResult`` is immutable.

Since PR 3 one frozen result object backs every consumer that re-serves
the same configuration — sweep threads, forked evaluators, the bounds
bisection and the homogeneous scan.  The dataclass is ``frozen=True``
and the memo freezes every array (``writeable = False``), but both
guards are runtime-deep only: a field rebind via ``object.__setattr__``,
an array poked back writable, or an in-place write to a field array
corrupts *every* consumer at once.

Flagged anywhere in the linted tree (except the defining module,
``simulator/metrics.py``, whose constructor legitimately installs the
derived-metrics memo):

* assignment / augmented assignment to a known result field
  (``X.latency_s = ...``), including tuple-unpacking targets;
* subscript writes through a field (``X.latency_s[i] = ...``);
* ``object.__setattr__(x, "<field>", ...)``;
* ``.setflags(write=...)`` with anything but a literal ``False``;
* ``.flags.writeable = ...`` with anything but a literal ``False``
  (the freeze direction is exactly what the caches do; the thaw
  direction undoes shared-cache safety).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.config import LintConfig
from repro.devtools.lint.engine import Module
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import rule


def _is_false(node: ast.AST | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def _field_target(node: ast.AST, fields: frozenset[str]) -> str | None:
    """Field name when ``node`` writes a frozen field (or through one)."""
    if isinstance(node, ast.Attribute) and node.attr in fields:
        return node.attr
    if isinstance(node, ast.Subscript):
        return _field_target(node.value, fields)
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            hit = _field_target(elt, fields)
            if hit is not None:
                return hit
    return None


@rule(
    "frozen-result",
    family="frozen-result",
    description="SimulationResult fields and arrays are write-once",
    rationale=(
        "PR 3's shared memo: one frozen result backs every evaluator;"
        " any post-construction write corrupts all concurrent consumers"
        " at once"
    ),
)
def check_frozen_result(module: Module, config: LintConfig) -> Iterator[Finding]:
    if module.relpath.endswith(config.frozen_result_module):
        return
    fields = frozenset(config.frozen_result_fields)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                # .flags.writeable = <non-False> (thaw direction)
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "writeable"
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "flags"
                    and not _is_false(node.value)
                ):
                    yield module.finding(
                        target,
                        "frozen-result",
                        "re-enabling array writability defeats the shared"
                        " result memo's freeze; copy instead",
                    )
                    continue
                field = _field_target(target, fields)
                if field is not None:
                    yield module.finding(
                        target,
                        "frozen-result",
                        f"write to SimulationResult field {field!r} outside"
                        " the constructor (results are shared frozen)",
                    )
        elif isinstance(node, ast.AugAssign):
            field = _field_target(node.target, fields)
            if field is not None:
                yield module.finding(
                    node.target,
                    "frozen-result",
                    f"in-place update of SimulationResult field {field!r}"
                    " (results are shared frozen)",
                )
        elif isinstance(node, ast.Call):
            resolved = module.resolve(node.func)
            if resolved == "object.__setattr__" and len(node.args) >= 2:
                name = node.args[1]
                if isinstance(name, ast.Constant) and name.value in fields:
                    yield module.finding(
                        node,
                        "frozen-result",
                        f"object.__setattr__ on frozen field {name.value!r}"
                        " outside the defining module",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"
            ):
                for kw in node.keywords:
                    if kw.arg == "write" and not _is_false(kw.value):
                        yield module.finding(
                            node,
                            "frozen-result",
                            "setflags(write=...) can thaw a shared frozen"
                            " array; freeze with writeable = False, never"
                            " thaw",
                        )
