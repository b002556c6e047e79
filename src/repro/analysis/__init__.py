"""Experiment harness: the code behind every table and figure.

High-level, figure-oriented entry points used by ``benchmarks/`` and the
CLI.  Each paper experiment maps to one function here returning plain data
(dataclasses / dicts of series); rendering is delegated to
:mod:`repro.analysis.reporting` so the benches can both print paper-style
output and assert on the underlying numbers.
"""

from repro.analysis.experiments import (
    ExperimentSetting,
    ModelExperiment,
    cost_savings_experiment,
    find_homogeneous_optimum,
    make_experiment,
    search_comparison,
)
from repro.analysis.cardinality import cardinality_sweep
from repro.analysis.reporting import (
    ascii_bar_chart,
    ascii_table,
    series_table,
)

__all__ = [
    "ExperimentSetting",
    "ModelExperiment",
    "make_experiment",
    "find_homogeneous_optimum",
    "cost_savings_experiment",
    "search_comparison",
    "cardinality_sweep",
    "ascii_table",
    "ascii_bar_chart",
    "series_table",
]
