"""Exception types shared across the package."""


class DypoError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DypoError, ValueError):
    """Invalid or inconsistent configuration."""


class InputError(DypoError, ValueError):
    """Arguments violate an operation's contract."""


class StateError(DypoError, RuntimeError):
    """Operation invoked on an object in the wrong state."""


class DataError(DypoError, RuntimeError):
    """Sampled or loaded data is unusable (e.g. non-finite entries)."""


class ArtifactError(DypoError, OSError):
    """An artifact file could not be written."""


class BenchError(DypoError, RuntimeError):
    """A benchmark could not complete within its budget."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class TrainingAborted(DypoError, RuntimeError):
    """Training stopped at a step whose loss, metrics or updated logits are not finite."""
