"""Determinism rules: the bit-identical-replay invariant, statically.

Since PR 2 the search core promises *bit-identical* results for equal
seeds across every dispatch loop and cache state — the golden-replay
tests enforce it dynamically, but only on the paths they happen to
exercise.  These rules ban the constructs that break that
promise at the source level:

* ``wall-clock`` — no wall/monotonic clock reads inside the determinism
  scope (``simulator/``, ``core/``, ``gp/``).  A timestamp on a result
  path makes two identical runs differ; a legitimate bookkeeping use
  must carry a justified suppression.
* ``unseeded-rng`` — no ``random.*`` module-level calls, no legacy
  ``np.random.*`` global-state API, no ``np.random.default_rng()``
  without a seed.  All randomness must flow from an explicit seed
  (the trace seed, the strategy seed).
* ``id-in-key`` — ``id(...)`` must never feed a hash or a serialized
  payload: object identity is not stable across processes or even across
  GC cycles within one process, so an id-derived persistent key silently
  partitions what it keys (``Scenario.identity()`` names the service's
  snapshot files and its reuse key; the in-memory identity keys of the
  simulator caches never leave the process).
* ``unordered-iteration`` — inside key-deriving functions (names
  matching ``key``/``digest``/``identity``/``fingerprint``), iteration
  over sets or over un-``sorted()`` ``.items()``/``.keys()``/
  ``.values()`` views is banned: two logically equal inputs with
  different construction histories must produce byte-equal keys.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint.config import LintConfig
from repro.devtools.lint.engine import Module
from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import rule

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: numpy.random members with explicit-seed, object-based semantics; every
#: other member is the legacy global-state API.
_NP_RANDOM_SEEDED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}

_KEY_FUNCTION = re.compile(r"(^|_)(key|digest|identity|fingerprint)", re.I)


@rule(
    "wall-clock",
    family="determinism",
    description="no wall/monotonic clock reads on deterministic paths",
    rationale=(
        "PR 2's golden-replay contract: equal seeds produce bit-identical"
        " SearchResults; a clock read on a simulator/core/gp path makes"
        " two identical runs diverge"
    ),
)
def check_wall_clock(module: Module, config: LintConfig) -> Iterator[Finding]:
    if not config.in_determinism_scope(module.relpath):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            resolved = module.resolve(node.func)
            if resolved in _CLOCK_CALLS:
                yield module.finding(
                    node,
                    "wall-clock",
                    f"{resolved}() on a deterministic path; results must be"
                    " a pure function of (workload, pool, seed)",
                )


@rule(
    "unseeded-rng",
    family="determinism",
    description="all randomness must flow from an explicit seed",
    rationale=(
        "PR 2's golden-replay contract: common random numbers are keyed on"
        " (trace seed, family) and strategy draws on the strategy seed;"
        " global or unseeded RNG state breaks replay and cache-warm/cold"
        " bit-identity"
    ),
)
def check_unseeded_rng(module: Module, config: LintConfig) -> Iterator[Finding]:
    if not config.in_determinism_scope(module.relpath):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve(node.func)
        if resolved is None:
            continue
        if resolved == "random.Random":
            if not node.args and not node.keywords:
                yield module.finding(
                    node, "unseeded-rng", "random.Random() without a seed"
                )
        elif resolved == "random.SystemRandom" or (
            resolved.startswith("random.") and "." not in resolved[7:]
        ):
            yield module.finding(
                node,
                "unseeded-rng",
                f"{resolved}() uses the process-global stdlib RNG; derive"
                " draws from an explicitly seeded np.random.default_rng",
            )
        elif resolved == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield module.finding(
                    node,
                    "unseeded-rng",
                    "np.random.default_rng() without a seed draws OS"
                    " entropy; pass the trace/strategy seed",
                )
        elif resolved.startswith("numpy.random."):
            member = resolved.split(".")[2]
            if member not in _NP_RANDOM_SEEDED:
                yield module.finding(
                    node,
                    "unseeded-rng",
                    f"legacy global-state API {resolved}(); use an"
                    " explicitly seeded np.random.default_rng generator",
                )


def _contains_id_call(node: ast.AST) -> ast.Call | None:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "id"
        ):
            return sub
    return None


@rule(
    "id-in-key",
    family="determinism",
    description="id() must not feed hashes or serialized payloads",
    rationale=(
        "in-memory cache keys may use object identity (self-invalidating"
        " via weakref), but anything hashed or serialized outlives the"
        " object — an id-derived Scenario.identity() would silently"
        " partition the service's snapshot store and reuse key across runs"
    ),
)
def check_id_in_key(module: Module, config: LintConfig) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = module.resolve(node.func)
        sink = None
        if resolved is not None and (
            resolved.startswith("hashlib.") or resolved == "json.dumps"
        ):
            sink = resolved
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and any(_contains_id_call(arg) for arg in node.args)
        ):
            sink = "a hash update"
        if sink is None:
            continue
        for arg in [*node.args, *[kw.value for kw in node.keywords]]:
            hit = _contains_id_call(arg)
            if hit is not None:
                yield module.finding(
                    hit,
                    "id-in-key",
                    f"id() flows into {sink}; persistent keys must be"
                    " content-addressed (object identity does not survive"
                    " the process)",
                )
                break


def _is_unordered_iterable(expr: ast.AST, module: Module) -> str | None:
    """Why iterating ``expr`` has no canonical order, or None if fine."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "a set has no canonical iteration order"
    if isinstance(expr, ast.Call):
        resolved = module.resolve(expr.func)
        if resolved == "set" or resolved == "frozenset":
            return "a set has no canonical iteration order"
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("items", "keys", "values")
            and not expr.args
        ):
            return (
                f".{expr.func.attr}() order is insertion order — not a"
                " canonical order; wrap in sorted(...)"
            )
    return None


@rule(
    "unordered-iteration",
    family="determinism",
    description="key-deriving functions must canonicalize iteration order",
    rationale=(
        "PR 6's Scenario.identity (the service's store and reuse key): two"
        " logically equal inputs built in different orders must hash"
        " byte-equal, so"
        " every iteration feeding a key goes through sorted(...)"
    ),
)
def check_unordered_iteration(
    module: Module, config: LintConfig
) -> Iterator[Finding]:
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _KEY_FUNCTION.search(func.name):
            continue
        for node in ast.walk(func):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for expr in iters:
                why = _is_unordered_iterable(expr, module)
                if why is not None:
                    yield module.finding(
                        expr,
                        "unordered-iteration",
                        f"in key-deriving function {func.name!r}: {why}",
                    )
