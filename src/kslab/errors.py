"""Exception types shared across the package."""


class CorruptionError(ValueError):
    """A field contains non-finite values (NaN/Inf)."""


class PositivityError(ValueError):
    """A quantity that must stay nonnegative went negative."""


class StoppedEarlyError(RuntimeError):
    """A solve that has to reach its end time stopped early; carries the
    run's stop_reason and status (CLI exit 2)."""

    def __init__(self, what: str, stop_reason: str, status: str):
        super().__init__(f"{what} stopped: {stop_reason}")
        self.stop_reason = stop_reason
        self.status = status


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every violation found."""
