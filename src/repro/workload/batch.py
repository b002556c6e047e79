"""Batch size distributions (Sec. 5.1).

The number of requests batched into one query varies across queries — for
general DL models because of adaptive batching, for recommendation models
because a query ranks a variable number of candidate items.  The paper's
default is a *heavy-tail log-normal* distribution (following DeepRecSys),
with a Gaussian alternative used to show robustness (Fig. 11).
"""

from __future__ import annotations

import abc

import numpy as np


class BatchSizeDistribution(abc.ABC):
    """Samples integer batch sizes in ``[1, max_batch]``."""

    def __init__(self, max_batch: int):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        self._max_batch = int(max_batch)

    @property
    def max_batch(self) -> int:
        """Adaptive-batching cap: the largest batch a query may carry."""
        return self._max_batch

    @abc.abstractmethod
    def _raw_sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` unclipped real-valued batch sizes."""

    @property
    @abc.abstractmethod
    def mean_batch(self) -> float:
        """Analytic mean of the *unclipped* distribution (planning aid)."""

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` integer batch sizes, clipped to ``[1, max_batch]``."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n!r}")
        raw = self._raw_sample(n, rng)
        return np.clip(np.rint(raw), 1, self._max_batch).astype(np.int64)


class HeavyTailLogNormalBatch(BatchSizeDistribution):
    """Heavy-tail log-normal batch sizes (the paper's default).

    Parameterized by the distribution *median* and the log-space sigma; a
    larger sigma produces a heavier tail.  The paper cites DeepRecSys for
    heavy-tail log-normal being more representative of production behaviour
    than a plain log-normal; we realize the heavier tail with a moderately
    large sigma plus the adaptive-batching clip, which concentrates extra
    mass at ``max_batch`` exactly as a production batching cap does.
    """

    def __init__(self, median: float, sigma: float, max_batch: int):
        super().__init__(max_batch)
        if median <= 0:
            raise ValueError(f"median must be positive, got {median!r}")
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma!r}")
        self._median = float(median)
        self._sigma = float(sigma)

    @property
    def median(self) -> float:
        return self._median

    @property
    def sigma(self) -> float:
        return self._sigma

    @property
    def mean_batch(self) -> float:
        return float(self._median * np.exp(self._sigma**2 / 2.0))

    def _raw_sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.lognormal(mean=np.log(self._median), sigma=self._sigma, size=n)

    def percentile(self, q: float) -> float:
        """Unclipped q-th percentile (q in [0, 100])."""
        from scipy.stats import norm

        z = norm.ppf(q / 100.0)
        return float(np.exp(np.log(self._median) + self._sigma * z))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeavyTailLogNormalBatch(median={self._median!r}, "
            f"sigma={self._sigma!r}, max_batch={self.max_batch!r})"
        )


class GaussianBatch(BatchSizeDistribution):
    """Gaussian batch sizes — the Fig. 11 robustness alternative."""

    def __init__(self, mean: float, std: float, max_batch: int):
        super().__init__(max_batch)
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std!r}")
        self._mean = float(mean)
        self._std = float(std)

    @property
    def mean_batch(self) -> float:
        return self._mean

    def _raw_sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(loc=self._mean, scale=self._std, size=n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GaussianBatch(mean={self._mean!r}, std={self._std!r}, "
            f"max_batch={self.max_batch!r})"
        )


class FixedBatch(BatchSizeDistribution):
    """Every query carries the same batch size (characterization sweeps)."""

    def __init__(self, batch: int, max_batch: int | None = None):
        super().__init__(max_batch if max_batch is not None else batch)
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch!r}")
        if batch > self.max_batch:
            raise ValueError(
                f"batch {batch} exceeds max_batch {self.max_batch}"
            )
        self._batch = int(batch)

    @property
    def mean_batch(self) -> float:
        return float(self._batch)

    def _raw_sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(n, self._batch, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedBatch(batch={self._batch!r})"
