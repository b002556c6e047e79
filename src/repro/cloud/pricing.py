"""Cost-effectiveness: the paper's per-instance figure of merit (Sec. 2).

* instance *performance* = achievable throughput, the reciprocal of mean
  service latency (queries per second);
* *cost-effectiveness* (Eq. 1) = queries served per dollar,

  .. math::

     \\text{Cost-Eff} = \\frac{\\text{Perf (query/sec)}}{\\text{Price (\\$/hr)}}
                      = \\frac{3600 \\cdot \\text{Perf}}{\\text{Price}}
                      \\;\\; [\\text{query}/\\$]

A pool's $/hour is
:meth:`~repro.simulator.pool.PoolConfiguration.hourly_cost`, and the Eq. 2
normalized cost is :meth:`~repro.core.search_space.SearchSpace.cost` over
:attr:`~repro.core.search_space.SearchSpace.max_cost`.
"""

from __future__ import annotations

SECONDS_PER_HOUR = 3600.0


def cost_effectiveness(throughput_qps: float, price_per_hour: float) -> float:
    """Queries served per dollar (Eq. 1 of the paper).

    Parameters
    ----------
    throughput_qps:
        Achievable throughput in queries/second (``1 / mean latency``).
    price_per_hour:
        Instance price in $/hour.
    """
    if throughput_qps < 0:
        raise ValueError(f"throughput must be non-negative, got {throughput_qps!r}")
    if price_per_hour <= 0:
        raise ValueError(f"price must be positive, got {price_per_hour!r}")
    return SECONDS_PER_HOUR * throughput_qps / price_per_hour
