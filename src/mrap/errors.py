"""Exception types shared across the package."""
from __future__ import annotations


class MrapError(Exception):
    """Base class for all package errors."""


class ParseError(MrapError):
    """A row of a data file is malformed or does not fit the loaded data.

    Carries the 1-based line number and the reason without it.
    """

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.reason = message


class DataError(MrapError):
    """Loaded data cannot support the requested operation."""


class FitError(MrapError):
    """A regression model could not be fitted or derived."""


class InsufficientSupportError(FitError):
    """Fewer training pairs than the fit requires."""


class DegenerateRegressorError(FitError):
    """The independent variable has zero variance over the training pairs."""


class NonInvertibleSlopeError(FitError):
    """Slope too close to zero for the reverse model to be derived."""


class ConfigError(MrapError):
    """Invalid configuration value or combination (usage error for the CLI)."""
