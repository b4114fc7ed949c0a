"""Exception types shared across the package."""


class CorruptionError(ValueError):
    """A field contains non-finite values (NaN/Inf)."""


class PositivityError(ValueError):
    """A quantity that must stay nonnegative went negative."""


class StaggeringError(ValueError):
    """A vector field has the wrong centering for the requested operation."""


class StoppedEarlyError(RuntimeError):
    """A solve that has to reach its end time stopped early (CLI exit 2)."""


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every violation found."""
