"""Exception types shared across the package."""


class BpreLabError(Exception):
    """Base class for all package errors."""


class ConfigError(BpreLabError):
    """Experiment config file is missing, malformed, or has bad values."""


class ParameterError(BpreLabError):
    """An operation was called with arguments outside its domain."""


class UnsupportedOperationError(BpreLabError):
    """Operation requires a stationary (i.i.d. mixture) environment."""


class TableOverflowError(BpreLabError):
    """A moment-table entry exceeded the overflow threshold.

    Carries the generation and moment order of the first offending entry.
    """

    def __init__(self, n: int, order: int, value: float):
        self.n = n
        self.order = order
        self.value = value
        super().__init__(
            f"moment table overflow at generation n={n}, order k={order} "
            f"(value {value:.3e} exceeds 1e300)"
        )


class EstimateUnavailableError(BpreLabError):
    """Too few usable replicas to form a Monte Carlo estimate."""


class FitUnavailableError(BpreLabError):
    """Decay fit has no admissible window (e.g. degenerate all-zero data)."""


class SimulationError(RuntimeError):
    """A forked simulation worker failed; its traceback went to stderr.

    Not a BpreLabError: a dead worker is a fault of the run, not of the input,
    so it propagates like an exception raised in-process instead of being
    read as a usage error or a failing check.
    """
