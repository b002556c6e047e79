"""repro-lint configuration: defaults + ``[tool.repro-lint]`` overrides.

The defaults encode this repository's invariants (which packages must be
deterministic, which modules may print, which methods the lock rule
skips).  A project can restate or override any of them from
``pyproject.toml``::

    [tool.repro-lint]
    determinism-paths = ["repro/simulator", "repro/core", "repro/gp"]
    print-allowed = ["repro/cli.py"]
    disable = []                       # rule names switched off globally

Keys use dashes (TOML idiom); unknown keys raise :class:`LintConfigError`
so a typo cannot silently disable a gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

try:  # python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ImportError:
        tomllib = None  # type: ignore[assignment]


class LintConfigError(Exception):
    """Bad ``[tool.repro-lint]`` contents (unknown key, wrong type)."""


@dataclass
class LintConfig:
    """Resolved configuration consumed by the engine and the rules."""

    #: Path fragments (posix) under which the determinism rules apply.
    determinism_paths: tuple[str, ...] = (
        "repro/simulator",
        "repro/core",
        "repro/gp",
    )
    #: Modules (path suffixes) allowed to call ``print`` (user-facing CLIs).
    print_allowed: tuple[str, ...] = (
        "repro/cli.py",
        "repro/devtools/lint/cli.py",
    )
    #: Method names the lock-discipline rule never checks (beyond the
    #: public-method scope itself: ``__init__`` builds the object before
    #: it is shared, ``_locked_*`` helpers document a held-lock contract).
    lock_exempt_methods: tuple[str, ...] = ("__init__", "__new__")
    #: Module (path suffix) that defines the frozen result dataclass and
    #: is therefore exempt from the frozen-result rule.
    frozen_result_module: str = "repro/simulator/metrics.py"
    #: Field names of the frozen result payload.
    frozen_result_fields: tuple[str, ...] = (
        "latency_s",
        "start_s",
        "queue_len_at_arrival",
    )
    #: Rule names disabled globally (prefer per-line suppressions).
    disable: tuple[str, ...] = ()

    def in_determinism_scope(self, relpath: str) -> bool:
        return any(frag in relpath for frag in self.determinism_paths)


_TOP_LEVEL_KEYS = {
    "determinism-paths": "determinism_paths",
    "print-allowed": "print_allowed",
    "lock-exempt-methods": "lock_exempt_methods",
    "disable": "disable",
}


def _expect_str_list(key: str, value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
        isinstance(v, str) for v in value
    ):
        raise LintConfigError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


def load_config(pyproject: str | Path | None) -> LintConfig:
    """Config from ``[tool.repro-lint]`` of ``pyproject`` (or defaults).

    A missing file or a pyproject without the table yields the defaults;
    a present table with unknown keys or mistyped values raises
    :class:`LintConfigError` (exit code 2 at the CLI).
    """
    config = LintConfig()
    if pyproject is None:
        return config
    path = Path(pyproject)
    if not path.is_file():
        return config
    if tomllib is None:  # pragma: no cover - 3.10 without tomli
        return config
    with open(path, "rb") as fh:
        try:
            table = tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise LintConfigError(f"cannot parse {path}: {exc}") from None
    section = table.get("tool", {}).get("repro-lint")
    if section is None:
        return config
    for key, value in section.items():
        if key not in _TOP_LEVEL_KEYS:
            raise LintConfigError(f"unknown [tool.repro-lint] key {key!r}")
        setattr(config, _TOP_LEVEL_KEYS[key], _expect_str_list(key, value))
    return config


def find_pyproject(start: str | Path) -> Path | None:
    """Nearest ``pyproject.toml`` at or above ``start`` (file or dir)."""
    node = Path(start).resolve()
    if node.is_file():
        node = node.parent
    for candidate in (node, *node.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None
