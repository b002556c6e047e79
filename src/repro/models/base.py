"""Model profile abstraction.

A :class:`ModelProfile` describes one deep learning model as seen by the
serving system: the per-instance-type service latency as a function of query
batch size, the model's QoS (tail latency) target, and its workload
parameters (arrival rate, batch distribution family defaults from Sec. 5.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Mapping

import numpy as np

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.cloud.pricing import cost_effectiveness


class ModelCategory(enum.Enum):
    """The two model categories of Sec. 2."""

    GENERAL = "general DNN/CNN"
    RECOMMENDATION = "recommendation (DNN + embedding tables)"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class LatencyProfile:
    """Affine service-latency model for one (model, instance type) pair.

    ``latency_ms(b) = base_ms + slope_ms * b`` for batch size ``b``.
    """

    base_ms: float
    slope_ms: float

    def __post_init__(self) -> None:
        if self.base_ms < 0 or self.slope_ms < 0:
            raise ValueError(
                f"latency coefficients must be non-negative, got "
                f"base={self.base_ms}, slope={self.slope_ms}"
            )

    def latency_ms(self, batch_size):
        """Service latency in milliseconds for batch size(s) ``batch_size``."""
        return self.base_ms + self.slope_ms * np.asarray(batch_size, dtype=float)


@dataclass(frozen=True)
class ModelProfile:
    """One deep learning model and its serving characteristics.

    Parameters
    ----------
    name:
        Model name (Table 1), e.g. ``"MT-WND"``.
    category:
        General DNN/CNN vs recommendation model.
    description:
        Table 1 description.
    qos_target_ms:
        Tail-latency target (Sec. 5.1): 40/400/800/20/30 ms for
        CANDLE/ResNet50/VGG19/MT-WND/DIEN.
    profiles:
        Mapping from instance family to :class:`LatencyProfile`.
    arrival_rate_qps:
        Default offered load (queries per second) used by the evaluation.
    batch_median:
        Median of the default heavy-tail log-normal batch distribution.
    batch_sigma:
        Log-space sigma of the default batch distribution.
    max_batch:
        Clip bound on batch sizes (adaptive-batching cap).
    homogeneous_family:
        Best homogeneous instance family (Table 3).
    diverse_pool:
        The Table 3 diverse pool (ordered: FCFS dispatch preference order).
    noise_sigma:
        Log-space sigma of multiplicative service-time noise, either one
        float for all families or a per-family mapping (unlisted families
        fall back to 0).  The noise is mean-one (``E[noise] = 1``), so
        throughput/cost-effectiveness figures are unaffected; only tails
        widen.  Models co-tenancy and burstable-CPU latency variability.
    """

    name: str
    category: ModelCategory
    description: str
    qos_target_ms: float
    profiles: Mapping[str, LatencyProfile]
    arrival_rate_qps: float
    batch_median: float
    batch_sigma: float
    max_batch: int
    homogeneous_family: str
    diverse_pool: tuple[str, ...]
    noise_sigma: Mapping[str, float] | float = 0.0
    catalog: InstanceCatalog = field(
        default_factory=lambda: DEFAULT_CATALOG, compare=False
    )

    def __post_init__(self) -> None:
        if self.qos_target_ms <= 0:
            raise ValueError("qos_target_ms must be positive")
        if self.arrival_rate_qps <= 0:
            raise ValueError("arrival_rate_qps must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.homogeneous_family not in self.profiles:
            raise ValueError(
                f"homogeneous family {self.homogeneous_family!r} has no profile"
            )
        for fam in self.diverse_pool:
            if fam not in self.profiles:
                raise ValueError(f"diverse pool family {fam!r} has no profile")
            self.catalog[fam]  # raises KeyError for unknown families
        if isinstance(self.noise_sigma, (int, float)):
            if self.noise_sigma < 0:
                raise ValueError("noise_sigma must be non-negative")
        else:
            if any(v < 0 for v in self.noise_sigma.values()):
                raise ValueError("noise_sigma values must be non-negative")

    def noise_sigma_for(self, family: str) -> float:
        """Service-noise log-sigma for one instance family."""
        if isinstance(self.noise_sigma, (int, float)):
            return float(self.noise_sigma)
        return float(self.noise_sigma.get(family, 0.0))

    # -- latency ----------------------------------------------------------
    def latency_ms(self, family: str, batch_size):
        """Service latency (ms) of a query of ``batch_size`` on ``family``."""
        try:
            prof = self.profiles[family]
        except KeyError:
            known = ", ".join(sorted(self.profiles))
            raise KeyError(
                f"model {self.name!r} has no profile for instance family "
                f"{family!r}; profiled families: {known}"
            ) from None
        return prof.latency_ms(batch_size)

    def service_time_s(self, family: str, batch_size):
        """Service time in seconds (simulator units)."""
        return self.latency_ms(family, batch_size) / 1000.0

    # -- figure-of-merit helpers (Sec. 2) ----------------------------------
    def mean_batch(self) -> float:
        """Mean of the default (clipped) log-normal batch distribution.

        Uses the un-clipped log-normal mean as a close analytic proxy; the
        simulator always works with sampled (clipped) batches.
        """
        mu = np.log(self.batch_median)
        return float(np.exp(mu + self.batch_sigma**2 / 2.0))

    def throughput_qps(self, family: str, batch_size: float) -> float:
        """Instance performance: reciprocal of mean service latency (QPS)."""
        lat_s = float(self.service_time_s(family, batch_size))
        return 1.0 / lat_s

    def cost_effectiveness(self, family: str, batch_size: float) -> float:
        """Eq. 1 cost-effectiveness (queries per dollar) at ``batch_size``."""
        return cost_effectiveness(
            self.throughput_qps(family, batch_size),
            self.catalog[family].price_per_hour,
        )

    def profiled_families(self) -> tuple[str, ...]:
        """Instance families this model has latency profiles for."""
        return tuple(self.profiles)

    def relaxed_qos_ms(self, relaxation: float = 0.3) -> float:
        """The Sec. 3.3 relaxed QoS target used for diverse-pool selection.

        The paper relaxes the target by ~30% (20 ms -> 26 ms for MT-WND) when
        screening cheap instance types for pool membership.
        """
        if relaxation < 0:
            raise ValueError("relaxation must be non-negative")
        return self.qos_target_ms * (1.0 + relaxation)
