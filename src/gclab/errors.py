"""Exception hierarchy shared by all gclab modules."""


class GclabError(Exception):
    """Base class for all library errors."""


class NonSymmetricMatrixError(GclabError):
    """Covariance matrix is not symmetric within tolerance."""


class ComplexSpectrumError(GclabError):
    """Symplectic-spectrum radicand is negative beyond tolerance."""


class InvalidStateError(GclabError):
    """State fails a physicality check (e.g. purity above one)."""


class DomainError(GclabError):
    """Scalar argument outside the domain of a function."""


class NumericalDegeneracyError(GclabError):
    """Standard-form reconstruction hit a negative quadratic discriminant."""


class NotSymmetricStateError(GclabError):
    """Operation requires a symmetric standard form (a == b)."""


class UnphysicalChannelError(GclabError):
    """Bath parameters violate |M|^2 <= N(N+1) or related constraints."""


class NotEntangledAtStartError(GclabError):
    """Entanglement-time query on an initially separable state."""


class MethodDisagreementError(GclabError):
    """Quartic-root and bisection entanglement times disagree."""
