"""Cloud computing instance substrate.

This package models the AWS EC2 instance types studied by the Ribbon paper
(Table 2): their families, sizes, hardware envelope, category, and on-demand
prices, plus the Eq. 1 cost-effectiveness figure of merit.  Pool cost is
priced by :meth:`~repro.simulator.pool.PoolConfiguration.hourly_cost`.

The catalog intentionally mirrors the instance set of the paper:

=============  ==========  ====================================
family         size        category
=============  ==========  ====================================
``t3``         xlarge      general purpose (burstable)
``m5``         xlarge      general purpose
``m5n``        xlarge      general purpose (network optimized)
``c5``         2xlarge     compute optimized (Intel Cascade Lake)
``c5a``        2xlarge     compute optimized (AMD EPYC)
``r5``         large       memory optimized
``r5n``        large       memory optimized (network optimized)
``g4dn``       xlarge      accelerator (NVIDIA T4 GPU)
=============  ==========  ====================================
"""

from repro.cloud.instance_types import InstanceCategory, InstanceSpec
from repro.cloud.catalog import (
    DEFAULT_CATALOG,
    InstanceCatalog,
    get_instance,
)
from repro.cloud.pricing import cost_effectiveness

__all__ = [
    "InstanceCategory",
    "InstanceSpec",
    "InstanceCatalog",
    "DEFAULT_CATALOG",
    "get_instance",
    "cost_effectiveness",
]
