"""Deep learning model latency-profile substrate.

The paper serves five real models (Table 1) on live EC2 instances.  We do not
have the authors' testbed, so this package substitutes analytic latency
profiles per (model, instance type): an affine service-time model

.. math:: L(\\text{type}, b) = \\text{base}_{\\text{type}} +
          \\text{slope}_{\\text{type}} \\cdot b

for a query of batch size :math:`b`.  The affine model is the standard
first-order model for inference serving (fixed framework/dispatch overhead
plus per-sample compute) and is calibrated so the qualitative facts the paper
reports hold — see ``DESIGN.md`` section 5 for the exact calibration
contract, enforced by ``tests/test_calibration.py``.
"""

from repro.models.base import ModelCategory, ModelProfile
from repro.models.zoo import (
    CANDLE,
    DIEN,
    MODEL_ZOO,
    MT_WND,
    RESNET50,
    VGG19,
    get_model,
)

__all__ = [
    "ModelCategory",
    "ModelProfile",
    "CANDLE",
    "RESNET50",
    "VGG19",
    "MT_WND",
    "DIEN",
    "MODEL_ZOO",
    "get_model",
]
