"""Exception types raised by specvi operations."""


class SpecviError(ValueError):
    """Base class for all specvi errors."""


class NonSquareError(SpecviError):
    """Matrix expected to be square is not."""


class NegativeEntryError(SpecviError):
    """Stochastic-matrix entry below -tol."""


class RowSumViolationError(SpecviError):
    """Stochastic-matrix row sum differs from 1 by more than tol."""


class DimensionMismatchError(SpecviError):
    """Operands have incompatible shapes."""


class InvalidActionIndexError(SpecviError):
    """Policy references an action outside [0, m)."""


class InvalidDimensionError(SpecviError):
    """Requested size is out of range for a generator."""


class InvalidParameterError(SpecviError):
    """Scalar parameter outside its admissible range."""


class ParseError(SpecviError):
    """Malformed matrix/vector text file."""


class EigenFailureError(SpecviError):
    """Dense eigenvalue routine failed to converge."""


class MatrixTooLargeError(SpecviError):
    """Dense spectral radius requested above spectral.DENSE_EIG_LIMIT (n <= 2000)."""


class InvalidKError(SpecviError):
    """Subspace dimension K outside [1, n]."""


class SplitConjugatePairError(SpecviError):
    """Requested K would cut a 2x2 complex-pair Schur block."""


class PowerOverflowError(SpecviError):
    """Matrix power left the representable range at power k."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class SingularSystemError(SpecviError):
    """Linear system (I - alpha*A) is numerically singular."""


class InsufficientTraceError(SpecviError):
    """Trace too short for the requested rate-estimation window."""


class ZeroResidualError(SpecviError):
    """Iteration converged exactly; residual ratio undefined."""


class ConfigError(SpecviError):
    """Invalid experiment configuration."""
