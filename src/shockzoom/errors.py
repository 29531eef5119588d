"""Exception and warning types shared across the package."""


class ShockzoomError(Exception):
    """Base class for errors raised by this package."""


class EqualStatesError(ShockzoomError, ValueError):
    """Left and right states coincide; no jump to speak of."""


class NotLaxError(ShockzoomError, ValueError):
    """A construction that needs a downward (admissible) jump got u_minus <= u_plus."""


class NotLaxWarning(UserWarning):
    """Jump data is not admissible; callers may still want the raw speed."""


class GridMismatchError(ShockzoomError, ValueError):
    """Two grid functions do not live on the same grid."""


class InstabilityError(ShockzoomError, RuntimeError):
    """The time stepper produced non-finite values or a runaway amplitude."""


class NoBracketError(ShockzoomError, ValueError):
    """Root search found no sign change inside the scan bracket."""


class MultipleRootsError(ShockzoomError, ValueError):
    """Characteristic equation has several roots (past the blow-up time)."""


class NotOrderedError(ShockzoomError, ValueError):
    """States of a shock chain are not strictly decreasing."""


class TauTooLateError(ShockzoomError, ValueError):
    """Blend time is too close to the interaction; profiles would overlap."""


class OutOfDomainError(ShockzoomError, ValueError):
    """Requested sample point lies outside the stored data."""


class NoCrossingError(ShockzoomError, ValueError):
    """Profile never crosses the requested midpoint value."""


class DegenerateError(ShockzoomError, ValueError):
    """Local data does not describe a nondegenerate cubic formation point."""


class NonPositiveError(ShockzoomError, ValueError):
    """Log fit received a non-positive error or step value."""


class ConfigError(ShockzoomError, ValueError):
    """Experiment configuration is malformed or inconsistent."""
