"""Exception taxonomy shared across the toolkit.

The CLI maps these onto process exit codes: configuration problems exit
with 2, data problems with 3, numerical failures with 4.
"""


class UqshiftError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(UqshiftError):
    """Invalid configuration value, file, or command-line usage."""


class DataError(UqshiftError):
    """Malformed, inconsistent, or missing input data."""


class NumericalError(UqshiftError):
    """A numerical procedure failed (divergence, singular matrix, ...)."""


class TrainingDivergedError(NumericalError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")
