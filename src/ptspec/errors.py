"""Exception types shared across the package."""


class PtspecError(Exception):
    """Base class for all package errors."""


class DegreeError(PtspecError):
    """Polynomial does not have the degree required by the operation."""


class SingularityError(PtspecError):
    """Evaluation hit a pole; carries the offending location(s)."""

    def __init__(self, message, where=None):
        super().__init__(message)
        self.where = where


class UnsupportedVariant(PtspecError):
    """Variant not handled by this operation."""


class UnsupportedTransform(PtspecError):
    """Requested family/variant transform is not defined."""


class DegenerateDiscriminant(PtspecError):
    """Discriminant of the radicand is constant in k; no k can be solved for."""


class NoAdmissibleBranch(PtspecError):
    """All four (k, sign) branch candidates have Re(tau') >= 0."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates or []


class RootNotConverged(PtspecError):
    """Secant iteration failed to reach tolerance within the budget."""


class QRNotConverged(PtspecError):
    """Dense eigensolver did not converge."""


class NonIntegrableWeight(PtspecError):
    """Weight function is not integrable on the working s-interval."""


class NotNormalizable(PtspecError):
    """Tail estimate indicates |psi|^2 does not have a finite integral."""
