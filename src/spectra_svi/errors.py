"""Exception types shared across the package."""


class SpectraSviError(Exception):
    """Base class for all package-specific errors."""


class NumericalFailure(SpectraSviError):
    """A linear-algebra routine failed to converge or would overflow.

    Carries optional condition diagnostics of the offending matrix so the
    caller can log something more useful than "eigh failed".
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class NotPositiveSemidefinite(SpectraSviError):
    """Input was required to be PSD (up to tolerance) but is not."""


class DomainError(SpectraSviError):
    """Input lies outside the mathematical domain of an operation."""


class ConfigError(SpectraSviError, ValueError):
    """Experiment configuration file is malformed or inconsistent; a bad
    value, so also a ValueError."""
