"""Rational approximation of algebraic numbers via regular-representation
matrix powers, with certified convergence analysis and exact iterative-method
baselines.  M is held as the element it represents (``build``), M and its
powers are read off that element by ``mat_pow``, and limits are taken one
way (``limit_ratio``); the other constructions and the closed cubic forms
are the tests' references."""

from .backends import BACKEND, rational
from .convergence import ConvergenceReport, LimitPrediction, analyze, limit_ratio
from .errors import DomainError, RepApproxError, UsageError
from .iterative import halley_step, newton_step, noor_step, run_method
from .polynomial import Polynomial, parse_polynomial
from .powers import (
    ApproximationRecord,
    MatrixPower,
    accelerated_sequence,
    constant_ratio_check,
    mat_pow,
    ratio_sequence,
)
from .regrep import RegRepMatrix, Weights, build
from .roots import (
    Enclosure,
    RootEstimate,
    RootSet,
    all_roots,
    isolate_real_roots,
    refine_real_root,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "rational",
    "Polynomial",
    "parse_polynomial",
    "Weights",
    "RegRepMatrix",
    "build",
    "Enclosure",
    "RootEstimate",
    "RootSet",
    "all_roots",
    "isolate_real_roots",
    "refine_real_root",
    "MatrixPower",
    "ApproximationRecord",
    "mat_pow",
    "ratio_sequence",
    "accelerated_sequence",
    "constant_ratio_check",
    "ConvergenceReport",
    "LimitPrediction",
    "analyze",
    "limit_ratio",
    "newton_step",
    "halley_step",
    "noor_step",
    "run_method",
    "RepApproxError",
    "UsageError",
    "DomainError",
]
