"""Lock-discipline rule: shared state mutates only under its lock.

Five modules carry concurrency (`_identity_cache`, `result_cache`,
`jobs`, `store`, the runner's sweep pool), all with the same convention:
a class that owns a ``threading.Lock`` / ``RLock`` / ``Condition``
attribute mutates its private state only inside ``with self._lock:``.
The golden tests catch a forgotten lock only probabilistically (the race
has to *lose*); this rule catches the pattern statically.

Scope (deliberately intraprocedural and conservative):

* applies to classes that assign a lock object to a ``self`` attribute
  (or name one ``_lock``/``_cond``);
* checks *public* methods only — ``__init__`` and private ``_helpers``
  are the documented allowlist (helpers state "call with the lock held"
  contracts; ``__init__`` builds the object before it is shared);
* flags assignments/augmented assignments/deletes of ``self._*``
  attributes, subscript writes through them, and calls of known mutating
  container methods (``append``/``pop``/``clear``/...) on them, when the
  statement is not lexically inside a ``with self.<lock>:`` block;
* nested functions are skipped (a closure may run on another thread —
  its discipline is the enclosing design's responsibility).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.config import LintConfig
from repro.devtools.lint.engine import Module
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import rule

_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "multiprocessing.Lock",
    "multiprocessing.RLock",
}

_LOCK_NAME_HINTS = ("_lock", "_cond")

_MUTATOR_METHODS = {
    "append",
    "appendleft",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "discard",
    "clear",
    "move_to_end",
    "sort",
    "reverse",
}


def _self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _lock_attrs(cls: ast.ClassDef, module: Module) -> set[str]:
    """Names of ``self`` attributes holding lock objects in this class."""
    out: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if attr in _LOCK_NAME_HINTS:
                out.add(attr)
            elif isinstance(node.value, ast.Call):
                resolved = module.resolve(node.value.func)
                if resolved in _LOCK_FACTORIES:
                    out.add(attr)
    return out


def _mutated_self_attr(stmt: ast.stmt) -> tuple[str, ast.AST] | None:
    """(attr, anchor node) when ``stmt`` mutates some ``self._X``."""

    def private(node: ast.AST) -> str | None:
        attr = _self_attr(node)
        if attr is not None and attr.startswith("_"):
            return attr
        # self._x[...] = / del self._x[...] / self._x[...] += ...
        if isinstance(node, ast.Subscript):
            return private(node.value)
        return None

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            targets = target.elts if isinstance(target, ast.Tuple) else [target]
            for sub in targets:
                attr = private(sub)
                if attr is not None:
                    return attr, sub
    elif isinstance(stmt, ast.AugAssign):
        attr = private(stmt.target)
        if attr is not None:
            return attr, stmt.target
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            attr = private(target)
            if attr is not None:
                return attr, target
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
            attr = private(func.value)
            if attr is not None:
                return attr, stmt.value
    return None


@rule(
    "lock-discipline",
    family="locks",
    description="self._* mutations in public methods must hold the lock",
    rationale=(
        "PR 3's identity caches, PR 6's job manager and snapshot store:"
        " every concurrency-bearing class serializes private-state"
        " mutation under its lock; a forgotten with-block is a race the"
        " stress tests only catch probabilistically"
    ),
)
def check_lock_discipline(
    module: Module, config: LintConfig
) -> Iterator[Finding]:
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        locks = _lock_attrs(cls, module)
        if not locks:
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name.startswith("_"):
                continue  # __init__, _helpers: the documented allowlist
            if method.name in config.lock_exempt_methods:
                continue
            args = method.args.posonlyargs + method.args.args
            if not args or args[0].arg != "self":
                continue  # staticmethod / classmethod
            yield from _check_method(module, cls, method, locks)


def _check_method(
    module: Module,
    cls: ast.ClassDef,
    method: ast.FunctionDef,
    locks: set[str],
) -> Iterator[Finding]:
    def visit(stmts: list[ast.stmt], locked: bool) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested functions: out of intraprocedural scope
            hit = _mutated_self_attr(stmt)
            if hit is not None and not locked:
                attr, anchor = hit
                yield module.finding(
                    anchor,
                    "lock-discipline",
                    f"{cls.name}.{method.name} mutates self.{attr} outside"
                    f" a with self.{'/'.join(sorted(locks))}: block",
                )
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquires = any(
                    _self_attr(item.context_expr) in locks
                    for item in stmt.items
                )
                yield from visit(stmt.body, locked or acquires)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                yield from visit(stmt.body, locked)
                yield from visit(stmt.orelse, locked)
            elif isinstance(stmt, ast.If):
                yield from visit(stmt.body, locked)
                yield from visit(stmt.orelse, locked)
            elif isinstance(stmt, ast.Try):
                yield from visit(stmt.body, locked)
                for handler in stmt.handlers:
                    yield from visit(handler.body, locked)
                yield from visit(stmt.orelse, locked)
                yield from visit(stmt.finalbody, locked)

    yield from visit(method.body, False)
