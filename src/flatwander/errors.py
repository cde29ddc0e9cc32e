"""Domain errors. Every error carries a machine-readable ``code`` for the CLI."""

from __future__ import annotations


class FlatwanderError(Exception):
    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.__class__.__name__)


class ParseError(FlatwanderError):
    """Input text does not conform to the number-expression grammar."""

    code = "syntax"


class MixedRadicals(FlatwanderError):
    """Two distinct square-free radicands were combined in one scalar."""

    code = "mixed-radicals"


class LowerHalfPlane(FlatwanderError):
    code = "lower-half-plane"


class NotACovering(FlatwanderError):
    code = "not-a-covering"


class DegreeTooLow(FlatwanderError):
    code = "degree-too-low"


class IncompatibleField(FlatwanderError):
    code = "incompatible-field"


class FieldClash(FlatwanderError):
    """Base-point radicand equals the slope radicand; transverse coordinates
    would not be unique."""

    code = "field-clash"


class SlopeNotInvariant(FlatwanderError):
    code = "slope-not-invariant"


class IrrationalOffset(FlatwanderError):
    """Line classification requires a rational translation part."""

    code = "irrational-offset"


class DegenerateSegment(FlatwanderError):
    code = "degenerate-segment"


class BudgetExceeded(FlatwanderError):
    code = "budget-exceeded"


class NotLattesCompatible(FlatwanderError):
    code = "not-lattes-compatible"


class WrongLatticeForGroup(FlatwanderError):
    code = "wrong-lattice-for-group"


class InternalInconsistency(FlatwanderError):
    """A certificate's own cross-check failed: a bug, never a verdict."""

    code = "internal-inconsistency"


class NearPole(FlatwanderError):
    code = "near-pole"


class ResidualExceedsTol(FlatwanderError):
    code = "residual-exceeds-tol"


class UsageError(FlatwanderError):
    code = "usage"


class IoError(FlatwanderError):
    code = "io"
