"""Shared fixtures: a fast toy model + wired search context.

Most tests exercise search logic on a deliberately tiny model/workload so
the whole suite stays fast; the calibration tests are the only ones that
run the full paper-scale workloads.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.cloud.catalog import DEFAULT_CATALOG
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.objective import RibbonObjective
from repro.core.search_space import SearchSpace
from repro.models.base import LatencyProfile, ModelCategory, ModelProfile
from repro.simulator import engine
from repro.workload.arrival import PoissonArrivalProcess
from repro.workload.batch import HeavyTailLogNormalBatch
from repro.workload.trace import QueryTrace, TraceGenerator


def make_toy_model(
    *,
    noise: float | dict = 0.0,
    arrival_rate_qps: float = 400.0,
    qos_target_ms: float = 20.0,
) -> ModelProfile:
    """A two-family model: 'g4dn' fast/expensive, 't3' slow/cheap."""
    return ModelProfile(
        name="toy",
        category=ModelCategory.RECOMMENDATION,
        description="synthetic test model",
        qos_target_ms=qos_target_ms,
        profiles={
            "g4dn": LatencyProfile(2.0, 0.05),
            "t3": LatencyProfile(1.0, 0.15),
            "c5": LatencyProfile(0.8, 0.10),
        },
        arrival_rate_qps=arrival_rate_qps,
        batch_median=30.0,
        batch_sigma=0.8,
        max_batch=256,
        homogeneous_family="g4dn",
        diverse_pool=("g4dn", "t3"),
        noise_sigma=noise,
    )


def make_toy_trace(model: ModelProfile, n: int = 400, seed: int = 7):
    """A short reproducible trace matched to the toy model."""
    return TraceGenerator(
        PoissonArrivalProcess(model.arrival_rate_qps),
        HeavyTailLogNormalBatch(model.batch_median, model.batch_sigma, model.max_batch),
        seed=seed,
    ).generate(n)


def make_tied_trace(seed: int, n: int, rate: float = 300.0) -> QueryTrace:
    """Arrivals in clumps of 1-5 queries sharing one timestamp (a batch of
    requests landing at once): queries tie with each other and, on
    zero-noise services, with the finish times of earlier ones."""
    rng = np.random.default_rng(seed)
    clumps = rng.integers(1, 6, size=n)
    stamps = np.cumsum(rng.exponential(clumps / rate))
    batches = np.clip(
        np.rint(rng.lognormal(np.log(30.0), 0.8, size=n)), 1, 256
    ).astype(np.int64)
    return QueryTrace(
        np.repeat(stamps, clumps)[:n], batches, rate_qps=rate, seed=seed
    )


def python_loops():
    """Context in which family dispatch runs the Python loops, as on a
    host where the compiled loop does not build."""
    return mock.patch.object(engine, "_native_loops", lambda: None)


#: The family-loop substrates: the compiled loop (when this host builds
#: it), then the Python loops.
SUBSTRATES = (contextlib.nullcontext, python_loops)


@pytest.fixture
def toy_model() -> ModelProfile:
    return make_toy_model()


@pytest.fixture
def toy_trace(toy_model):
    return make_toy_trace(toy_model)


@pytest.fixture
def toy_space() -> SearchSpace:
    return SearchSpace(("g4dn", "t3"), (4, 6), catalog=DEFAULT_CATALOG)


@pytest.fixture
def toy_evaluator(toy_model, toy_trace, toy_space) -> ConfigurationEvaluator:
    objective = RibbonObjective(toy_space, qos_rate_target=0.95)
    return ConfigurationEvaluator(toy_model, toy_trace, objective)
