"""Exception types shared across the package."""


class GradmineError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GradmineError, ValueError):
    """Operands have incompatible or malformed shapes."""


class InvalidInputError(GradmineError, ValueError):
    """A sample, trace, or argument violates an operation's contract."""


class ConfigError(GradmineError, ValueError):
    """A configuration value is out of range or inconsistent."""


class DistributionError(GradmineError, ValueError):
    """A probability vector is negative, degenerate, or unnormalizable."""


class DivergenceError(GradmineError, RuntimeError):
    """Training produced a non-finite loss."""


class ParseError(GradmineError, ValueError):
    """A serialized file is malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
