"""Query traces: the concrete stream a configuration evaluation serves.

A :class:`QueryTrace` is an array-of-structs record of a finite query
stream: sorted arrival timestamps and per-query batch sizes.  Traces are
produced by a seeded :class:`TraceGenerator` so that every search strategy
evaluates configurations against the *same* stream (common random numbers),
mirroring how the paper replays the same production-emulating trace for all
competing techniques.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.models.base import ModelProfile
from repro.workload.arrival import ArrivalProcess, PoissonArrivalProcess
from repro.workload.batch import (
    BatchSizeDistribution,
    GaussianBatch,
    HeavyTailLogNormalBatch,
)


@dataclass(frozen=True)
class QueryTrace:
    """A finite stream of inference queries.

    Attributes
    ----------
    arrival_s:
        Sorted arrival timestamps in seconds, shape ``(n,)``.
    batch_sizes:
        Integer batch size of each query, shape ``(n,)``.
    rate_qps:
        Nominal offered load the trace was generated at.
    seed:
        Seed used for generation (for provenance).
    """

    arrival_s: np.ndarray
    batch_sizes: np.ndarray
    rate_qps: float
    seed: int | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.arrival_s, dtype=float)
        bat = np.asarray(self.batch_sizes, dtype=np.int64)
        if arr.ndim != 1 or bat.ndim != 1:
            raise ValueError("arrival_s and batch_sizes must be 1-D")
        if arr.shape != bat.shape:
            raise ValueError(
                f"arrival/batch length mismatch: {arr.shape} vs {bat.shape}"
            )
        if arr.size and np.any(np.diff(arr) < 0):
            raise ValueError("arrival times must be sorted non-decreasing")
        if np.any(bat < 1):
            raise ValueError("batch sizes must be >= 1")
        object.__setattr__(self, "arrival_s", arr)
        object.__setattr__(self, "batch_sizes", bat)

    def __len__(self) -> int:
        return int(self.arrival_s.size)

    @property
    def duration_s(self) -> float:
        """Time span covered by the trace."""
        return float(self.arrival_s[-1]) if len(self) else 0.0

    def head(self, n: int) -> "QueryTrace":
        """The first ``n`` queries as a new trace."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n!r}")
        return QueryTrace(
            self.arrival_s[:n], self.batch_sizes[:n], self.rate_qps, self.seed
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "arrival_s": self.arrival_s.tolist(),
            "batch_sizes": self.batch_sizes.tolist(),
            "rate_qps": self.rate_qps,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "QueryTrace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            np.asarray(payload["arrival_s"], dtype=float),
            np.asarray(payload["batch_sizes"], dtype=np.int64),
            float(payload["rate_qps"]),
            payload.get("seed"),
        )


class TraceGenerator:
    """Seeded factory for :class:`QueryTrace` objects.

    Combines an :class:`~repro.workload.arrival.ArrivalProcess` with a
    :class:`~repro.workload.batch.BatchSizeDistribution`.
    """

    def __init__(
        self,
        arrivals: ArrivalProcess,
        batches: BatchSizeDistribution,
        seed: int = 0,
    ):
        self._arrivals = arrivals
        self._batches = batches
        self._seed = int(seed)

    @property
    def arrivals(self) -> ArrivalProcess:
        return self._arrivals

    @property
    def batches(self) -> BatchSizeDistribution:
        return self._batches

    @property
    def seed(self) -> int:
        return self._seed

    def generate(self, n_queries: int, seed: int | None = None) -> QueryTrace:
        """Generate a trace of ``n_queries`` queries.

        ``seed`` overrides the generator default, enabling multiple
        independent replications from one generator.
        """
        use_seed = self._seed if seed is None else int(seed)
        rng = np.random.default_rng(use_seed)
        arrival = self._arrivals.sample(n_queries, rng)
        batch = self._batches.sample(n_queries, rng)
        return QueryTrace(arrival, batch, self._arrivals.rate_qps, use_seed)

    def scaled(self, factor: float) -> "TraceGenerator":
        """A generator with the arrival rate scaled by ``factor`` (Fig. 16)."""
        return TraceGenerator(self._arrivals.scaled(factor), self._batches, self._seed)


def trace_for_model(
    model: ModelProfile,
    n_queries: int = 4000,
    seed: int = 0,
    *,
    load_factor: float = 1.0,
    gaussian: bool = False,
) -> QueryTrace:
    """Build the paper's default trace for a Table 1 model.

    Poisson arrivals at the model's calibrated rate; heavy-tail log-normal
    batch sizes (or Gaussian with matched mean when ``gaussian=True``, the
    Fig. 11 variant).
    """
    if load_factor <= 0:
        raise ValueError(f"load_factor must be positive, got {load_factor!r}")
    arrivals = PoissonArrivalProcess(model.arrival_rate_qps * load_factor)
    if gaussian:
        lognormal = HeavyTailLogNormalBatch(
            model.batch_median, model.batch_sigma, model.max_batch
        )
        batches: BatchSizeDistribution = GaussianBatch(
            mean=lognormal.mean_batch,
            std=0.6 * lognormal.mean_batch,
            max_batch=model.max_batch,
        )
    else:
        batches = HeavyTailLogNormalBatch(
            model.batch_median, model.batch_sigma, model.max_batch
        )
    return TraceGenerator(arrivals, batches, seed).generate(n_queries)
