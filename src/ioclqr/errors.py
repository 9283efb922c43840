"""Exception types shared across the package.

Every error derives from one of three bases, each carrying the exit code the
command line returns for it: ParseError (1), ValidationError (2) and
SolverError (3).
"""


class IocError(Exception):
    """Base class for all package errors."""


class ParseError(IocError):
    """Input file is malformed or missing required fields."""

    exit_code = 1


class ValidationError(IocError):
    """Inputs or data violate an invariant or a hypothesis."""

    exit_code = 2


class SolverError(IocError):
    """A numerical solver failed or did not converge."""

    exit_code = 3


class InvalidSystem(ValidationError):
    """System matrices violate an invariant.

    flag is one of 'non_finite', 'not_invertible', 'rank_deficient_B',
    'uncontrollable'.
    """

    def __init__(self, flag, msg=None):
        self.flag = flag
        super().__init__(msg or flag)


class InvalidCost(ValidationError):
    """Cost matrix violates a shape or ball invariant."""


class AsymmetricInput(ValidationError):
    pass


class PsdViolation(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NumericalFailure(SolverError):
    pass


class SizeGuardExceeded(ValidationError):
    pass


class SingularSystem(SolverError):
    pass


class HypothesisUnmet(ValidationError):
    """A theorem's hypotheses do not hold for the given data."""


class NotIdentifiable(ValidationError):
    pass


class ResidualTooLarge(ValidationError):
    pass


class SolverNotConverged(SolverError):
    pass


class AmbiguousSolution(ValidationError):
    pass


class RejectionBudgetExceeded(ValidationError):
    pass
