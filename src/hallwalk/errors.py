"""Exception types shared across the package."""


class HallwalkError(Exception):
    """Base class for all package errors."""


class DimensionError(HallwalkError):
    """Mismatched vector lengths, or a non-square matrix where one is required."""


class BudgetExceededError(HallwalkError):
    """An enumeration would exceed the configured work budget; refused up front."""


class InconsistentCountsError(HallwalkError):
    """Dilate counts do not come from a lattice polytope (negative delta entry)."""


class UnsupportedSequenceError(HallwalkError):
    """The sequence is outside the class an operation is defined for."""


class PreconditionError(HallwalkError):
    """A documented operation precondition was violated by the caller."""


class MathematicalInconsistencyError(HallwalkError):
    """Two routes that must agree disagreed; signals a bug or a counterexample."""


class UsageError(HallwalkError):
    """Malformed command line input."""
