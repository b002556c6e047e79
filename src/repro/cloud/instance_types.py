"""Instance type descriptions.

An :class:`InstanceSpec` is an immutable record of one purchasable cloud
instance type.  The fields mirror what a user sees on the EC2 pricing page.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class InstanceCategory(enum.Enum):
    """Marketing category of an instance family (Table 2 of the paper)."""

    GENERAL_PURPOSE = "general purpose"
    COMPUTE_OPTIMIZED = "compute optimized"
    MEMORY_OPTIMIZED = "memory optimized"
    ACCELERATOR = "accelerator"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class InstanceSpec:
    """One cloud instance type.

    Parameters
    ----------
    name:
        Full API name, e.g. ``"g4dn.xlarge"``.
    family:
        Family code name, e.g. ``"g4dn"``.  Pool configurations and model
        profiles are keyed by family because the paper uses exactly one size
        per family.
    size:
        Size suffix, e.g. ``"xlarge"``.
    category:
        Marketing category (general purpose / compute / memory / accelerator).
    vcpus:
        Number of virtual CPUs.
    memory_gib:
        Main memory in GiB.
    price_per_hour:
        On-demand price in USD per hour (us-east-1, 2021 list prices).
    gpu:
        Whether the instance carries a GPU accelerator.
    description:
        Human-readable blurb (Table 2 reproduction).
    """

    name: str
    family: str
    size: str
    category: InstanceCategory
    vcpus: int
    memory_gib: float
    price_per_hour: float
    gpu: bool = False
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.price_per_hour <= 0.0:
            raise ValueError(
                f"price_per_hour must be positive, got {self.price_per_hour!r}"
            )
        if self.vcpus <= 0:
            raise ValueError(f"vcpus must be positive, got {self.vcpus!r}")
        if self.memory_gib <= 0:
            raise ValueError(f"memory_gib must be positive, got {self.memory_gib!r}")
        expected = f"{self.family}.{self.size}"
        if self.name != expected:
            raise ValueError(
                f"name {self.name!r} does not match family/size {expected!r}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name
