"""Exception types shared across the package."""


class SignalAmpError(Exception):
    """Base class for every error raised by this package."""


class DuplicateSignalError(SignalAmpError):
    """A signal id was registered twice."""


class UnknownSignalError(SignalAmpError):
    """An edge or query referenced a signal id that was never registered."""


class NoBaselineError(SignalAmpError):
    """The window holds zero transactions, so no baseline rate exists."""


class DegenerateBaselineError(SignalAmpError):
    """The baseline rate is exactly 0 or 1; the z-test is undefined and the
    signal is inactive for the window."""


# The errors that leave a signal inactive for a window rather than scored.
INACTIVE_SIGNAL = (NoBaselineError, DegenerateBaselineError)


class UnsortedEdgesError(SignalAmpError):
    """Edges arrived out of day order where day order is required."""


class InfeasibleScenarioError(SignalAmpError):
    """A scenario config combines parameters that cannot be generated."""


class EdgeFileError(SignalAmpError):
    """An input file is malformed; the message lists offending lines."""


class CheckpointError(SignalAmpError):
    """A checkpoint file is unreadable, inconsistent, or from an
    unsupported format version."""
