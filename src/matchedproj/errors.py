"""Exception types shared across the package."""


class MatchedProjectionError(Exception):
    """Base class for all library errors."""


class ValidationError(MatchedProjectionError):
    """A certified wrapper (idempotent, projection, ...) failed its defect bound."""


class NotHermitianError(MatchedProjectionError):
    """Operation requires a Hermitian matrix."""


class NotUnitaryError(MatchedProjectionError):
    """Operation requires a unitary matrix."""


class SingularPencilError(MatchedProjectionError):
    """Q + Q* - I is numerically singular, so the input is not a clean idempotent."""


class BadRankError(MatchedProjectionError):
    """Requested rank lies outside [0, dim]."""


class ZeroParameterError(MatchedProjectionError):
    """The canonical 2x2 family needs a nonzero off-diagonal parameter."""


class InapplicableHypothesisError(MatchedProjectionError):
    """Hypothesis of the underlying statement fails for these inputs."""


class MatrixFileError(MatchedProjectionError):
    """Matrix JSON file is malformed or inconsistent."""
