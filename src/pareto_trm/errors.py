"""Exception types shared across the package."""


class ParetoTRMError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ParetoTRMError):
    """A vector or matrix has the wrong shape for the operation."""


class InfeasiblePoint(ParetoTRMError):
    """An evaluation was requested outside the feasible set (hard constraints)."""


class ObjectiveFailure(ParetoTRMError):
    """An objective evaluator returned NaN or infinity."""

    def __init__(self, message, site=None):
        super().__init__(message)
        self.site = site


class SingularMatrix(ParetoTRMError):
    """Pivot fell below threshold in a dense linear solve."""


class LPFailure(ParetoTRMError):
    """The simplex solver failed to make progress (numerical trouble)."""


class DegenerateGeometry(ParetoTRMError):
    """No affinely independent training set fits inside the feasible region."""


class PoisednessRepairStalled(ParetoTRMError):
    """Lambda-poisedness repair hit its iteration cap without certifying."""


class BudgetExhausted(ParetoTRMError):
    """The expensive-evaluation budget would be exceeded."""


class DegenerateDenominator(ParetoTRMError):
    """A predicted-reduction denominator vanished for a nonzero step."""


class UnsupportedDimension(ParetoTRMError):
    """A test problem was requested with dimensions its family does not allow."""
