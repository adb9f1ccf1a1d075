"""Exception hierarchy shared across the package."""

__all__ = [
    "FixedHinfError",
    "DimensionMismatch",
    "LengthMismatch",
    "IllPosed",
    "SingularResolvent",
    "EigenFailure",
    "UnstableSystem",
    "NotStabilizing",
    "NoStabilizingController",
    "ParseError",
]


class FixedHinfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FixedHinfError):
    """Matrix blocks have inconsistent shapes for the requested operation."""


class LengthMismatch(FixedHinfError):
    """A packed parameter vector has the wrong length for the target dimensions."""


class IllPosed(FixedHinfError):
    """The plant/controller interconnection does not exist: I - D22*DK is singular
    or so badly conditioned that the closed loop is numerically meaningless, or
    the closed loop overflows."""


class SingularResolvent(FixedHinfError):
    """Transfer evaluation requested at (numerically) an eigenvalue of A."""


class EigenFailure(FixedHinfError):
    """The underlying eigenvalue solver failed to converge."""


class UnstableSystem(FixedHinfError):
    """The system is not asymptotically stable, so the H-infinity norm is infinite."""


class NotStabilizing(FixedHinfError):
    """A controller expected to stabilize the plant does not."""


class NoStabilizingController(FixedHinfError):
    """Stabilization failed: no controller with negative closed-loop abscissa found."""

    def __init__(self, message: str, best_abscissa: float = float("inf")):
        super().__init__(message)
        self.best_abscissa = best_abscissa


class ParseError(FixedHinfError):
    """A plant/controller file could not be parsed."""
