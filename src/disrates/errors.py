"""Exception types shared across the package.

Each concrete class carries how the command line reports it: `exit_code`
is the process's exit status and `label` the prefix of its message on
stderr (2 for configuration errors, 3 for data errors, 4 for numerical
failures).
"""


class DisratesError(Exception):
    """Base class for errors raised by this package."""


class PanelFormatError(DisratesError, ValueError):
    """Malformed panel input (bad header, unparseable row, wrong schema).

    Carries the 1-based line number of the offending row when known.
    """

    exit_code, label = 3, "data error"

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PanelValidationError(DisratesError, ValueError):
    """Structurally valid input that violates a panel invariant (e.g. N > E)."""

    exit_code, label = 3, "data error"


class ConfigError(DisratesError, ValueError):
    """Invalid run configuration."""

    exit_code, label = 2, "config error"


class FilterDegeneracyError(DisratesError, RuntimeError):
    """All particle weights underflowed; the model cannot explain the data."""

    exit_code, label = 4, "numerical failure"

    def __init__(self, period, particle=None):
        where = f"period {period}"
        if particle is not None:
            where += f", particle {particle}"
        super().__init__(f"particle weights underflowed at {where}")
        self.period = period
        self.particle = particle


class GridCoverageError(DisratesError, RuntimeError):
    """Probability mass reached the grid boundary; a wider grid is required."""

    exit_code, label = 4, "numerical failure"


class MStepNotPositiveDefinite(DisratesError):
    """Signal that the M-step covariance estimate is not positive definite.

    Carries the offending matrix so the EM driver can run a repair strategy.
    """

    exit_code, label = 4, "numerical failure"

    def __init__(self, cbar):
        super().__init__("M-step covariance estimate is not positive definite")
        self.cbar = cbar


class PDRepairError(DisratesError, RuntimeError):
    """Both positive-definiteness repair strategies failed."""

    exit_code, label = 4, "numerical failure"

    def __init__(self, iteration):
        super().__init__(
            f"positive-definiteness repair failed at EM iteration {iteration}"
        )
        self.iteration = iteration
