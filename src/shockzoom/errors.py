"""Exception and warning types shared across the package.

One error type per CLI exit code: ConfigError (a ValueError) for input that
breaks a rule, exit 2; InstabilityError for a blown-up solve, exit 3; any
other ShockzoomError for a check or computation that could not be carried
out, exit 1. NoCrossingError and OutOfDomainError are the exit-1 cases that
callers catch by class; NotLaxWarning maps to no exit code.
"""


class ShockzoomError(Exception):
    """Base class of this package's errors, raised itself where a check or
    computation could not be carried out."""


class ConfigError(ShockzoomError, ValueError):
    """Input breaks a rule: malformed or inconsistent configuration or data."""


class InstabilityError(ShockzoomError, RuntimeError):
    """The time stepper produced non-finite values or a runaway amplitude."""


class OutOfDomainError(ShockzoomError, ValueError):
    """Requested sample point lies outside the stored data."""


class NoCrossingError(ShockzoomError, ValueError):
    """Profile never crosses the requested midpoint value."""


class NotLaxWarning(UserWarning):
    """Jump data is not admissible; callers may still want the raw speed."""
