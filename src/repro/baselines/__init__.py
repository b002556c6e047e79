"""Competing search strategies (Sec. 5.3 of the paper).

* :class:`RandomSearch` — random sampling made "more intelligent" with the
  paper's dominance skipping rules;
* :class:`HillClimb` — multi-dimensional hill climbing with random restarts;
* :class:`ResponseSurface` — 3-level face-centered central composite design
  followed by local exploration around the most promising design point;
* :class:`ExhaustiveSearch` — ground truth (ascending cost, stopping at the
  first satisfier).

All strategies share the :class:`repro.core.strategy.SearchStrategy`
interface and are scored by the same accounting, so Figs. 10/13/14 compare
like with like.
"""

from repro.baselines.random_search import RandomSearch
from repro.baselines.hill_climb import HillClimb
from repro.baselines.rsm import ResponseSurface, ccf_design
from repro.baselines.exhaustive import ExhaustiveSearch, find_optimal_configuration

__all__ = [
    "RandomSearch",
    "HillClimb",
    "ResponseSurface",
    "ccf_design",
    "ExhaustiveSearch",
    "find_optimal_configuration",
]
