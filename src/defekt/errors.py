"""Exception hierarchy shared by every module in the package."""


class DefektError(Exception):
    """Base class for package errors."""


class ParseError(DefektError):
    """Graph input text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(DefektError):
    """Input violates a structural requirement (loops, bad ids, bad partition)."""


class CapExceededError(DefektError):
    """An exact search was asked to run above its configured size cap."""


class StructuralError(DefektError):
    """A peel or partition got stuck, so the structural hypothesis fails.

    ``witness`` carries the offending subgraph, or None, so the failure can
    be re-checked independently.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class PreconditionRefutedError(StructuralError):
    """Every case of a certificate search came up empty.

    The carried graph is then itself evidence against the density
    parameters the caller certified.
    """


class AlgorithmError(DefektError):
    """An internal self-check failed; indicates a bug, not bad input."""


class PrecisionError(DefektError):
    """A comparison against an interval enclosure straddled the boundary."""
