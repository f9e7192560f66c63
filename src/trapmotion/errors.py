"""Exception and warning types shared across the package."""


class TrapmotionError(Exception):
    """Base class for package-specific errors."""


class NumericalError(TrapmotionError):
    """A numerical procedure failed to converge to its accuracy target.

    The optional ``residual`` attribute carries the best available error
    estimate at the point of failure.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ResourceError(TrapmotionError):
    """A computation would exceed a configured resource bound (grid extent,
    propagation domain)."""


class ResonanceError(TrapmotionError, ValueError):
    """A closed form was evaluated at (or too close to) its singular
    drive-frequency point; the caller should use the resonance expression.

    Also a ValueError, so callers that treat it as a bad argument keep
    working."""


class ConfigError(TrapmotionError):
    """A scenario configuration file failed validation.

    Messages include the 1-based line number of the offending entry when one
    is available.
    """


class TruncationWarning(RuntimeWarning):
    """Reported probabilities miss a non-negligible amount of mass; raise the
    level cap or enlarge the grid."""
