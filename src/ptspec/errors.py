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


class DegenerateTermination(PtspecError):
    """The termination polynomial P_n(E) vanishes identically: level n
    terminates at every energy, so the condition fixes no level."""


class UnsupportedReduction(PtspecError):
    """The family's reduction to hypergeometric type does not hold for these
    parameters."""


class NoAdmissibleBranch(PtspecError):
    """No branch is admissible: all four (k, sign) candidates of a form have
    Re(tau') >= 0, or no real root of the termination polynomial lies on a
    branch with Re(tau') < 0.  candidates holds the rejected ones."""

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates or []


class QRNotConverged(PtspecError):
    """Dense eigensolver did not converge."""


class NonIntegrableWeight(PtspecError):
    """Weight function is not integrable on the working s-interval."""


class NotNormalizable(PtspecError):
    """Tail estimate indicates |psi|^2 does not have a finite integral."""
