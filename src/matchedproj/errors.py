"""Exception types shared across the package.

The package raises two kinds of error, each with one meaning.  An argument
that fails a check needing no numerical gate (a shape, a finite entry, a
rank or count out of range, a parameter that must be nonzero, a malformed
matrix file) raises the built-in ``ValueError``.  A computed norm held to a
gate that it fails, on an input or on a result, raises ``ValidationError``,
the one subclass of ``MatchedProjectionError``.
"""


class MatchedProjectionError(Exception):
    """Base class for all library errors: a certificate the computation could not meet."""


class ValidationError(MatchedProjectionError):
    """A computed norm failed its gate, on an input (idempotent, Hermitian, ...) or on a result."""
