"""The strategy registry: every search algorithm behind one discoverable name.

Ribbon and all competing baselines register here under canonical
kebab-case names; consumers select them by string (``--method`` on the
CLI, ``Scenario.run("ribbon")`` in code) instead of by hard import.  A new
optimizer plugs into every existing entry point by subclassing
:class:`repro.core.strategy.SearchStrategy` and decorating itself::

    from repro.api import register_strategy
    from repro.core.strategy import Budget, SearchStrategy

    @register_strategy("my-strategy", "ms")
    class MyStrategy(SearchStrategy):
        name = "MY"

        def _run(self, evaluator, budget: Budget, start) -> None:
            ...
"""

from __future__ import annotations

import inspect
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, TypeVar

from repro.api.scenario import ScenarioError
from repro.baselines.exhaustive import ExhaustiveSearch
from repro.baselines.hill_climb import HillClimb
from repro.baselines.random_search import RandomSearch
from repro.baselines.rsm import ResponseSurface
from repro.core.optimizer import RibbonOptimizer
from repro.core.strategy import SearchStrategy

__all__ = [
    "StrategyOption",
    "UnknownStrategyError",
    "available_strategies",
    "check_strategy_options",
    "make_strategy",
    "register_strategy",
    "strategy_class",
    "strategy_options",
]

S = TypeVar("S", bound=type[SearchStrategy])

#: Canonical name -> strategy class.
_STRATEGIES: dict[str, type[SearchStrategy]] = {}
#: Canonical alias -> canonical name.
_ALIASES: dict[str, str] = {}


class UnknownStrategyError(KeyError):
    """Requested strategy name is not registered; message lists what is."""

    def __init__(self, name):
        self.name = name
        super().__init__(
            f"unknown strategy {name!r}; available: "
            f"{', '.join(available_strategies())}"
        )

    def __str__(self) -> str:
        return self.args[0]


def _canonical(name: str) -> str:
    """Normalize a strategy name: case-, space- and underscore-insensitive."""
    if not isinstance(name, str) or not name.strip():
        raise ValueError(f"strategy name must be a non-empty string, got {name!r}")
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def register_strategy(
    name: str, *aliases: str, overwrite: bool = False
) -> Callable[[S], S]:
    """Class decorator registering a :class:`SearchStrategy` under ``name``.

    ``aliases`` resolve to the same class; registration is idempotent for
    the same class and raises for a conflicting one unless ``overwrite``.
    """

    def decorate(cls: S) -> S:
        if not (isinstance(cls, type) and issubclass(cls, SearchStrategy)):
            raise TypeError(
                f"@register_strategy expects a SearchStrategy subclass, got {cls!r}"
            )
        key = _canonical(name)
        current = _STRATEGIES.get(key)
        if current is None and key in _ALIASES:
            current = _STRATEGIES.get(_ALIASES[key])
        if current is not None and current is not cls and not overwrite:
            raise ValueError(
                f"strategy name {key!r} is already registered to "
                f"{current.__name__}; pass overwrite=True to replace it"
            )
        _STRATEGIES[key] = cls
        _ALIASES.pop(key, None)
        for alias in aliases:
            akey = _canonical(alias)
            if akey == key:
                continue  # alias canonicalizes to the primary name itself
            owner = _STRATEGIES.get(akey)
            bound = _ALIASES.get(akey)
            conflict = (owner is not None and owner is not cls) or (
                bound is not None and bound != key
            )
            if conflict and not overwrite:
                raise ValueError(
                    f"strategy alias {akey!r} is already taken; "
                    f"pass overwrite=True to replace it"
                )
            _ALIASES[akey] = key
        return cls

    return decorate


def strategy_class(name: str) -> type[SearchStrategy]:
    """Resolve a (possibly aliased) strategy name to its class.

    Any unresolvable input — unknown, empty, or non-string — raises
    :class:`UnknownStrategyError` so callers (e.g. the CLI) have one
    error type to catch for bad lookups.
    """
    try:
        key = _canonical(name)
    except ValueError:
        raise UnknownStrategyError(name) from None
    key = _ALIASES.get(key, key)
    try:
        return _STRATEGIES[key]
    except KeyError:
        raise UnknownStrategyError(name) from None


def make_strategy(name: str, **kwargs) -> SearchStrategy:
    """Instantiate a registered strategy by name.

    ``kwargs`` are passed to the strategy constructor (``max_samples``,
    ``seed``, and any strategy-specific knobs) after
    :func:`check_strategy_options` has accepted their names: an unknown
    name raises :class:`UnknownStrategyError`, an option the constructor
    lacks :class:`~repro.api.scenario.ScenarioError`.
    """
    return check_strategy_options(name, kwargs)(**kwargs)


def available_strategies() -> tuple[str, ...]:
    """Canonical names of every registered strategy, sorted."""
    return tuple(sorted(_STRATEGIES))


@dataclass(frozen=True)
class StrategyOption:
    """One constructor knob of a registered strategy."""

    name: str
    default: Any
    annotation: str
    required: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.required:
            return f"{self.name} (required)"
        return f"{self.name}={self.default!r}"


def strategy_options(name: str) -> tuple[StrategyOption, ...]:
    """The constructor options a strategy accepts, with their defaults.

    Introspected from the strategy class's ``__init__`` signature, in
    declaration order; var-positional/var-keyword catch-alls are omitted.
    This is what ``repro-ribbon strategies`` surfaces, and what the CLI
    uses to reject knobs a strategy does not support (e.g.
    ``--batch-size`` on a non-batching baseline) before any search runs.
    """
    return _constructor_options(strategy_class(name))[0]


def check_strategy_options(
    name: str, options: Iterable[str]
) -> type[SearchStrategy]:
    """Resolve ``name`` and refuse option names its constructor lacks.

    The one option check behind :func:`make_strategy`, the runner and the
    service: an unknown strategy raises :class:`UnknownStrategyError`, an
    unknown option name :class:`~repro.api.scenario.ScenarioError`
    listing the accepted ones (a constructor taking ``**kwargs`` accepts
    any name).  Returns the resolved class.
    """
    cls = strategy_class(name)
    accepted, names = _constructor_options(cls)
    if names is not None:
        unknown = sorted(set(options) - names)
        if unknown:
            raise ScenarioError(
                f"strategy {name!r} does not accept option(s) "
                f"{', '.join(map(repr, unknown))}; accepted options: "
                f"{', '.join(opt.name for opt in accepted)}"
            )
    return cls


@cache
def _constructor_options(
    cls: type[SearchStrategy],
) -> tuple[tuple[StrategyOption, ...], frozenset[str] | None]:
    """``cls.__init__``'s options and their names (None when it takes
    ``**kwargs``), introspected once per class."""
    options: list[StrategyOption] = []
    any_name = False
    for param in inspect.signature(cls.__init__).parameters.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            any_name = True
            continue
        if param.name == "self" or param.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        required = param.default is inspect.Parameter.empty
        annotation = (
            "" if param.annotation is inspect.Parameter.empty
            else str(param.annotation)
        )
        options.append(
            StrategyOption(
                name=param.name,
                default=None if required else param.default,
                annotation=annotation,
                required=required,
            )
        )
    names = None if any_name else frozenset(opt.name for opt in options)
    return tuple(options), names


# -- built-in registrations -------------------------------------------------------
register_strategy("ribbon", "bo", "bayesian")(RibbonOptimizer)
register_strategy("hill-climb", "hillclimb")(HillClimb)
register_strategy("random", "random-search")(RandomSearch)
register_strategy("rsm", "response-surface")(ResponseSurface)
register_strategy("exhaustive", "ground-truth")(ExhaustiveSearch)
