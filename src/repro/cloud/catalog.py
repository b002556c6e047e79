"""Catalog of the AWS instance types studied in the paper (Table 2).

Prices are the 2021 us-east-1 Linux on-demand list prices, which are also the
prices the paper's cost axes are consistent with (e.g. Fig. 4: five
g4dn.xlarge = $2.63/hr, twelve t3.xlarge = $2.00/hr).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.cloud.instance_types import InstanceCategory, InstanceSpec

_CAT = InstanceCategory

#: The eight instance types of Table 2, keyed by family.
_TABLE2: tuple[InstanceSpec, ...] = (
    InstanceSpec(
        name="t3.xlarge",
        family="t3",
        size="xlarge",
        category=_CAT.GENERAL_PURPOSE,
        vcpus=4,
        memory_gib=16.0,
        price_per_hour=0.1664,
        description="Burstable general purpose; balance of compute/memory/network.",
    ),
    InstanceSpec(
        name="m5.xlarge",
        family="m5",
        size="xlarge",
        category=_CAT.GENERAL_PURPOSE,
        vcpus=4,
        memory_gib=16.0,
        price_per_hour=0.1920,
        description="General purpose (Intel Xeon Platinum); balanced resources.",
    ),
    InstanceSpec(
        name="m5n.xlarge",
        family="m5n",
        size="xlarge",
        category=_CAT.GENERAL_PURPOSE,
        vcpus=4,
        memory_gib=16.0,
        price_per_hour=0.2380,
        description="General purpose, network optimized variant of m5.",
    ),
    InstanceSpec(
        name="c5.2xlarge",
        family="c5",
        size="2xlarge",
        category=_CAT.COMPUTE_OPTIMIZED,
        vcpus=8,
        memory_gib=16.0,
        price_per_hour=0.3400,
        description="Compute optimized (Intel Cascade Lake); compute-heavy workloads.",
    ),
    InstanceSpec(
        name="c5a.2xlarge",
        family="c5a",
        size="2xlarge",
        category=_CAT.COMPUTE_OPTIMIZED,
        vcpus=8,
        memory_gib=16.0,
        price_per_hour=0.3080,
        description="Compute optimized (AMD EPYC); compute-heavy workloads.",
    ),
    InstanceSpec(
        name="r5.large",
        family="r5",
        size="large",
        category=_CAT.MEMORY_OPTIMIZED,
        vcpus=2,
        memory_gib=16.0,
        price_per_hour=0.1260,
        description="Memory optimized ('r'); memory-intensive workloads.",
    ),
    InstanceSpec(
        name="r5n.large",
        family="r5n",
        size="large",
        category=_CAT.MEMORY_OPTIMIZED,
        vcpus=2,
        memory_gib=16.0,
        price_per_hour=0.1490,
        description="Memory optimized, network optimized variant of r5.",
    ),
    InstanceSpec(
        name="g4dn.xlarge",
        family="g4dn",
        size="xlarge",
        category=_CAT.ACCELERATOR,
        vcpus=4,
        memory_gib=16.0,
        price_per_hour=0.5260,
        gpu=True,
        description="Cost-effective GPU instance (NVIDIA T4) for ML inference.",
    ),
)


class InstanceCatalog(Mapping[str, InstanceSpec]):
    """An immutable registry of instance types, keyed by family code name.

    Behaves as a read-only mapping ``family -> InstanceSpec`` plus
    :attr:`families` and :meth:`cheapest`.  The module-level :data:`DEFAULT_CATALOG`
    holds the Table 2 set; custom catalogs can be built for what-if studies.
    """

    def __init__(self, specs: Iterable[InstanceSpec]):
        by_family: dict[str, InstanceSpec] = {}
        for spec in specs:
            if spec.family in by_family:
                raise ValueError(f"duplicate instance family {spec.family!r}")
            by_family[spec.family] = spec
        if not by_family:
            raise ValueError("catalog must contain at least one instance type")
        self._by_family = by_family

    # -- Mapping protocol -------------------------------------------------
    def __getitem__(self, family: str) -> InstanceSpec:
        try:
            return self._by_family[family]
        except KeyError:
            known = ", ".join(sorted(self._by_family))
            raise KeyError(
                f"unknown instance family {family!r}; known families: {known}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_family)

    def __len__(self) -> int:
        return len(self._by_family)

    # -- queries -----------------------------------------------------------
    @property
    def families(self) -> tuple[str, ...]:
        """Family code names in registration (Table 2) order."""
        return tuple(self._by_family)

    def cheapest(self) -> InstanceSpec:
        """The lowest hourly price spec in the catalog."""
        return min(self._by_family.values(), key=lambda s: s.price_per_hour)


#: The paper's Table 2 instance set.
DEFAULT_CATALOG = InstanceCatalog(_TABLE2)


def get_instance(family: str) -> InstanceSpec:
    """Look up a family code name in the default (Table 2) catalog."""
    return DEFAULT_CATALOG[family]
