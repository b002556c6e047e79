"""Analytic profile generator.

Derives a latency profile for a model that was not profiled explicitly
from the instance hardware scores in the catalog, using a two-term
roofline-style model:

.. math::

   L(i, b) = \\underbrace{o \\cdot d_i}_{\\text{dispatch overhead}}
           + b \\cdot \\frac{w}{\\text{eff}_i}

where ``w`` is the per-sample work of the model (milliseconds on the
reference m5.xlarge), ``eff_i`` blends the instance's compute and memory
bandwidth scores according to the model's *memory intensity* (recommendation
models are embedding-lookup bound, CNNs are compute bound), and ``d_i`` is
larger for GPUs (kernel launch / PCIe transfer overhead).
"""

from __future__ import annotations

from repro.cloud.catalog import DEFAULT_CATALOG, InstanceCatalog
from repro.models.base import LatencyProfile

#: GPU dispatch overhead multiplier relative to a CPU instance.
GPU_OVERHEAD_FACTOR = 2.2

#: GPUs execute batched inference far more efficiently than their raw
#: compute score suggests for small models; this tempers the advantage so
#: the crossover behaviour of Fig. 3 is preserved.
GPU_EFFICIENCY = 0.55


def _effective_score(
    catalog: InstanceCatalog, family: str, memory_intensity: float
) -> float:
    """Blend compute and memory-bandwidth scores by memory intensity."""
    spec = catalog[family]
    score = (
        spec.compute_score ** (1.0 - memory_intensity)
        * spec.memory_bw_score**memory_intensity
    )
    if spec.gpu:
        score *= GPU_EFFICIENCY
    return score


def derive_profile(
    family: str,
    *,
    work_ms_per_sample: float,
    overhead_ms: float,
    memory_intensity: float,
    catalog: InstanceCatalog = DEFAULT_CATALOG,
) -> LatencyProfile:
    """Derive a :class:`LatencyProfile` for one instance family.

    Parameters
    ----------
    family:
        Instance family code name.
    work_ms_per_sample:
        Per-sample compute time on the m5.xlarge reference, in ms.
    overhead_ms:
        Fixed per-query dispatch overhead on a CPU instance, in ms.
    memory_intensity:
        In ``[0, 1]``; 0 = purely compute bound (CNNs), 1 = purely memory
        bandwidth bound (embedding-table lookups).
    """
    if not 0.0 <= memory_intensity <= 1.0:
        raise ValueError(f"memory_intensity must be in [0,1], got {memory_intensity}")
    if work_ms_per_sample <= 0 or overhead_ms < 0:
        raise ValueError("work must be positive and overhead non-negative")
    spec = catalog[family]
    base = overhead_ms * (GPU_OVERHEAD_FACTOR if spec.gpu else 1.0)
    slope = work_ms_per_sample / _effective_score(catalog, family, memory_intensity)
    return LatencyProfile(base_ms=base, slope_ms=slope)
