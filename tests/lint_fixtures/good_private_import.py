"""Fixture: public imports, repro's own privates, stdlib accelerators."""

from __future__ import annotations

import _thread

from scipy import optimize
from scipy.optimize import minimize

from repro.gp.kernels import _as_2d

from ._local import helper
