"""The analysis driver: file discovery, parsing, rule dispatch,
suppression filtering.

:class:`Module` is the unit every rule sees — the parsed AST plus an
import-alias map so rules can resolve ``np.random.default_rng`` and
``from time import time as now`` to canonical dotted names without
executing anything.  :func:`run` walks the requested paths, runs every
registered rule on every module, then drops findings covered by a
justified per-line suppression (malformed suppressions surface as
findings themselves).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.lint import registry, suppressions
from repro.devtools.lint.findings import Finding


@dataclass
class Module:
    """One parsed source file plus derived lookup structures."""

    path: Path
    relpath: str  # posix, relative to the lint invocation root
    source: str
    tree: ast.Module
    #: local alias -> canonical dotted origin ("np" -> "numpy",
    #: "now" -> "time.time" for ``from time import time as now``).
    imports: dict[str, str] = field(default_factory=dict)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or None.

        The chain's leading name is expanded through the import map, so
        ``np.random.rand`` resolves to ``numpy.random.rand`` and a
        ``from numpy.random import default_rng`` call site resolves to
        ``numpy.random.default_rng``.  Chains rooted in anything other
        than a plain name (calls, subscripts) resolve to None.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.imports.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))


def _import_map(tree: ast.Module) -> dict[str, str]:
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return table


def parse_module(path: Path, relpath: str) -> tuple[Module | None, Finding | None]:
    """Parse one file; a syntax error becomes a ``parse-error`` finding."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule="parse-error",
            message=f"cannot parse: {exc.msg}",
        )
    module = Module(path=path, relpath=relpath, source=source, tree=tree)
    module.imports = _import_map(tree)
    return module, None


def collect_files(paths: list[str | Path]) -> list[tuple[Path, str]]:
    """(absolute path, display path) of every ``.py`` file under ``paths``.

    Display paths keep the prefix as given (``src/repro/...`` for
    ``repro-lint src``), so findings are clickable from the repo root.
    """
    out: list[tuple[Path, str]] = []
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates = [root]
        elif root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for path in candidates:
            resolved = path.resolve()
            if resolved in seen or "__pycache__" in path.parts:
                continue
            seen.add(resolved)
            out.append((path, path.as_posix()))
    return out


def run(paths: list[str | Path]) -> tuple[list[Finding], int]:
    """Lint ``paths``; returns (post-suppression findings, files checked)."""
    modules: list[Module] = []
    findings: list[Finding] = []
    tables: dict[str, suppressions.Suppressions] = {}
    files = collect_files(paths)
    for path, relpath in files:
        module, parse_finding = parse_module(path, relpath)
        if parse_finding is not None:
            findings.append(parse_finding)
            continue
        modules.append(module)
        tables[relpath] = suppressions.scan(relpath, module.source)

    raw: list[Finding] = []
    for rule in registry.all_rules():
        for module in modules:
            raw.extend(rule.check(module))

    for finding in raw:
        table = tables.get(finding.path)
        if table is not None and table.covers(finding.line, finding.rule):
            continue
        findings.append(finding)
    for table in tables.values():
        findings.extend(table.malformed)
    return findings, len(files)
