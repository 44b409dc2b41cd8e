"""Exception types shared across the toolkit."""


class CI2DError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CI2DError):
    """Invalid configuration value (grid size, exponent range, ...)."""


class RankError(CI2DError):
    """Operation applied to a field of the wrong tensor rank."""


class AliasingRisk(CI2DError):
    """The grid cannot represent the requested operation exactly."""


class DivisibilityError(CI2DError):
    """Wave-parameter divisibility constraint violated."""


class ConstraintViolation(CI2DError):
    """A schedule inequality failed; carries the offending labels."""

    def __init__(self, labels, report=None):
        self.labels = list(labels)
        self.report = report
        super().__init__("constraint violation at " + ", ".join(self.labels))


class PaddingError(CI2DError):
    """Time grid too short to host a temporal convolution."""


class InvalidInput(CI2DError):
    """Input state violates a precondition (divergence, mean, ...)."""


class DerivativeChannelMissing(CI2DError):
    """An operation required an analytic time-derivative channel."""


class NonFiniteValue(CI2DError):
    """A computed value is NaN or infinite, so no identity it enters holds."""
