"""Exception types shared across the package."""


class SurvrouteError(Exception):
    """Base class for all package errors."""


class ContractViolation(SurvrouteError, ValueError):
    """An operation was called with arguments violating its contract."""


class ValidityError(SurvrouteError, ValueError):
    """A genotype failed the problem's validity predicate."""


class ParseError(SurvrouteError, ValueError):
    """Instance text could not be parsed.

    Carries the 1-based line number of the offending record when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class InstanceError(SurvrouteError, ValueError):
    """A parsed instance is semantically unusable: a dangling id, or an infeasible MR.

    An MR is infeasible when it has no candidate link, or no path of at most
    MAXDEPTH links to an access router; the message names it.
    """


class ConfigError(SurvrouteError, ValueError):
    """Run configuration is invalid."""


class OracleScopeError(SurvrouteError, RuntimeError):
    """The exact enumeration oracle was asked to handle too large a search space."""
