"""Exception hierarchy shared by all stableheat modules.

Two top-level classes map onto the CLI exit-code discipline:
validation problems (bad parameters, violated hypotheses, malformed
configs) and numerical problems (accuracy, blow-up).  An experiment
that runs cleanly but misses its target is not an exception: its
report says so, and the CLI exits with its own code.
"""


class StableHeatError(Exception):
    """Base class for all package errors."""


class ParameterError(StableHeatError, ValueError):
    """Input outside the documented parameter domain."""


class ConfigError(ParameterError):
    """Malformed or inconsistent run configuration."""


class UnobservableEventError(ParameterError):
    """The requested event cannot be decided from the sampled jumps."""


class HypothesisError(ParameterError):
    """A coefficient audit failed; carries a reproducible witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NumericalError(StableHeatError):
    """Numerical procedure failed to meet its accuracy contract."""


class AccuracyError(NumericalError):
    """Requested tolerance is not certifiable at the current settings."""


class DeltaSingularityError(NumericalError):
    """Pointwise kernel evaluation requested at the delta singularity."""


class BlowUpError(NumericalError):
    """Non-finite values appeared in a solution path; the message names its
    noise seed."""
