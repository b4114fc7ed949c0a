"""Exception types shared across the package."""


class CorruptionError(ValueError):
    """A field contains non-finite values (NaN/Inf)."""


class PositivityError(ValueError):
    """A quantity that must stay nonnegative went negative."""


class SnapshotError(ValueError):
    """A file is not a well-formed KSF1 snapshot: a bad magic, a header that
    is cut short or names no valid grid, or a body of the wrong length."""


class StoppedEarlyError(RuntimeError):
    """A solve that has to reach its end time stopped early.  run_info is
    the summary's record of the stop: the run's stop_reason, which solve of
    its ladder stopped (stopped_in: the solve's name and its level and
    cells, or its forced dt) and when (t_stop)."""

    def __init__(self, what: str, stop_reason: str, where: dict, t_stop: float):
        super().__init__(f"{what} stopped: {stop_reason}")
        self.run_info = {"stop_reason": stop_reason,
                         "stopped_in": {"solve": what, **where}, "t_stop": t_stop}


class ConfigError(ValueError):
    """Invalid run configuration; the message lists every violation found."""
