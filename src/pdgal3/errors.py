"""Exception types shared across the package."""


class PdgalError(Exception):
    """Base class for package errors."""


class ExpressionParseError(PdgalError):
    """Input text is not a valid rational expression in t and x."""


class NonFuchsianError(PdgalError):
    """The system has an irregular singularity and no certificate was given."""


class IncompleteSearchError(PdgalError):
    """A bounded search was exhausted without a provably complete answer."""


class UnsupportedError(PdgalError):
    """The request is outside the supported problem class (e.g. dimension)."""


class CertificateError(PdgalError, ValueError):
    """A supplied certificate does not certify what it claims."""


class UnexpectedError(PdgalError):
    """An exception that is not a package error (an OSError from the file
    system, say), carried as __cause__ to the CLI, which exits 3 with it."""
