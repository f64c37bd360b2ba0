"""Rational approximation of algebraic numbers via regular-representation
matrix powers, with certified convergence analysis and exact iterative-method
baselines."""

from .backends import BACKEND, rational
from .convergence import ConvergenceReport, LimitPrediction, analyze, cubic_limit_matrix, limit_ratio, rate_report
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
from .regrep import RegRepMatrix, Weights, build, build_cubic, entries_via_formula, entry_multinomial
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
    "build_cubic",
    "entry_multinomial",
    "entries_via_formula",
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
    "cubic_limit_matrix",
    "rate_report",
    "newton_step",
    "halley_step",
    "noor_step",
    "run_method",
    "RepApproxError",
    "UsageError",
    "DomainError",
]
