"""Exception taxonomy shared across the package.

Every error raised on purpose derives from CavmagError so callers can
catch the whole family at an API boundary.
"""


class CavmagError(Exception):
    """Base class for all toolkit errors."""


class InvalidSystem(CavmagError):
    """A mode set, damping, coupling or material constant is out of range."""


class NegativeField(CavmagError):
    """Applied static field below zero."""


class NegativeFrequency(CavmagError):
    """Target frequency below zero."""


class SingularResponse(CavmagError):
    """The response matrix is singular (or numerically indistinguishable)."""


class EigenFailure(CavmagError):
    """The eigenvalue iteration did not converge."""


class WindowTooNarrow(CavmagError):
    """A field window holds fewer than three swept points, or leaves the sweep."""


class NoMinimum(CavmagError):
    """Branch separation has no interior minimum inside the window."""


class NegativeCoupling(CavmagError):
    """A thickness model produced a coupling below zero."""


class DegenerateProblem(CavmagError):
    """Fewer data points than the fit needs."""


class DegenerateData(CavmagError):
    """Regression input carries no spread in the abscissa."""


class ConfigError(CavmagError):
    """A run configuration failed schema validation."""


class DataFormatError(CavmagError):
    """A data file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
