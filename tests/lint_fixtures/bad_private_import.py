"""Fixture: the three private-import forms, one finding each."""

import scipy.optimize._lbfgsb
from scipy.optimize import _lbfgsb
from scipy.optimize._lbfgsb_py import fmin_l_bfgs_b
