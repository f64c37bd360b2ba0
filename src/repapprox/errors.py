"""Exception hierarchy.

DomainError subclasses signal mathematically meaningful failures (the CLI
maps them to exit code 2); UsageError signals bad arguments (exit code 1).
"""


class RepApproxError(Exception):
    """Base class for all package errors."""


class UsageError(RepApproxError):
    """Malformed input: bad literals, wrong arity, unknown options."""


class DomainError(RepApproxError):
    """Input is well-formed but the requested computation is not defined."""


class NotSquarefree(DomainError):
    """Polynomial has a repeated root where distinct roots are required."""


class ZeroDenominator(DomainError):
    """A denominator entry or derivative vanished at the point of use."""


class DominanceUndecidable(DomainError):
    """No strictly dominant eigenvalue: a conjugate pair ties, or none is certified at the ceiling."""


class RootSeparationError(DomainError):
    """Root inclusion disks could not be made disjoint (near-multiple roots)."""


class IterationDiverged(DomainError):
    """Iterative method error grew for several consecutive steps."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records or []
