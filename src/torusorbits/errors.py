"""Exception types shared across the package.

Every operation that can reject its input raises one of these instead of a
bare ValueError, so callers (and the command line driver) can map failures
to exit codes: validation errors exit 2, invariant violations exit 3.
"""


class TorusOrbitsError(Exception):
    """Base class for all package errors."""


class ValidationError(TorusOrbitsError):
    """Bad input: rejected before any computation runs."""


class InvariantViolation(TorusOrbitsError):
    """A structural guarantee failed; indicates a bug, never expected."""


# -- number fields ----------------------------------------------------------

class NotMonic(ValidationError):
    pass


class Reducible(ValidationError):
    pass


class UnitVerificationFailed(ValidationError):
    pass


class WrongUnitRank(ValidationError):
    pass


class DivisionByZero(ValidationError):
    pass


class PrecisionExhausted(TorusOrbitsError):
    pass


class Inconclusive(TorusOrbitsError):
    """Numeric detection fell below its tolerance; reported, never guessed."""


class MissingCmStructure(ValidationError):
    pass


# -- root data / enumeration ------------------------------------------------

class TooLarge(ValidationError):
    pass


# -- exact linear algebra ----------------------------------------------------

class Singular(ValidationError):
    pass


# -- strata ------------------------------------------------------------------

class MinimalNotBorel(InvariantViolation):
    pass


class BoundViolated(InvariantViolation):
    pass


# -- dynamics ----------------------------------------------------------------

class HypothesisViolated(ValidationError):
    pass


class MembershipFails(ValidationError):
    pass


# -- forms -------------------------------------------------------------------

class DependentFactors(ValidationError):
    pass


class ArityMismatch(ValidationError):
    pass


class HypothesisFails(ValidationError):
    pass


class SearchExhausted(TorusOrbitsError):
    pass


class CapExceeded(ValidationError):
    pass


class WrongPlaceCount(ValidationError):
    pass


class NotCm(ValidationError):
    pass


class CoefficientsNotInF(ValidationError):
    pass
