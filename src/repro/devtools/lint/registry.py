"""Rule registry: declaration, lookup, and registration decorator.

A rule is a named check with a family, a human rationale (which invariant
it guards, and which PR introduced that invariant), and a
``check(module)`` pass over one parsed file.

Rules register themselves at import time via :func:`rule`; the engine
imports :mod:`repro.devtools.lint.rules` once and iterates the registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

_REGISTRY: dict[str, "Rule"] = {}


@dataclass(frozen=True)
class Rule:
    name: str
    family: str
    description: str
    rationale: str
    check: Callable


def rule(
    name: str,
    *,
    family: str,
    description: str,
    rationale: str,
):
    """Decorator registering ``fn`` as the named rule's check."""

    def decorate(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"duplicate rule name {name!r}")
        _REGISTRY[name] = Rule(
            name=name,
            family=family,
            description=description,
            rationale=rationale,
            check=fn,
        )
        return fn

    return decorate


def _ensure_registered() -> None:
    # Import-for-side-effect; at call time the circular edge back to this
    # module is already resolved.
    import repro.devtools.lint.rules  # noqa: F401


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by (family, name)."""
    _ensure_registered()
    return tuple(
        sorted(_REGISTRY.values(), key=lambda r: (r.family, r.name))
    )


def families() -> tuple[str, ...]:
    _ensure_registered()
    return tuple(sorted({r.family for r in _REGISTRY.values()}))
