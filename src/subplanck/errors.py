"""Exception hierarchy shared across the package.

Three tiers: :class:`PreconditionError` marks bad inputs, :class:`SolverError`
marks an iterative routine that ran but could not reach its goal, and
:class:`ConfigError` marks malformed run configuration.  The command line
front end maps these onto distinct exit codes.
"""

__all__ = ["QuantifierError", "ConfigError", "PreconditionError", "SolverError"]


class QuantifierError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(QuantifierError):
    """Run configuration is malformed, self-contradictory or names an unreadable file."""


class PreconditionError(QuantifierError, ValueError):
    """An input violates a documented precondition."""


class SolverError(QuantifierError, RuntimeError):
    """An iterative numerical routine failed."""


# --- density grid ---------------------------------------------------------

class NonUniformGrid(PreconditionError):
    """Grid nodes are not uniformly spaced."""


class NegativeDensity(PreconditionError):
    """A density value is negative."""


class ZeroMass(PreconditionError):
    """The density integrates to zero."""


class TooFewPoints(PreconditionError):
    """Fewer grid nodes than the minimum of 64."""


class NoInteriorMaximum(PreconditionError):
    """The density is maximized at a grid edge."""


class WindowOutOfRange(PreconditionError):
    """A curvature fit window does not fit inside the grid."""


class InsufficientSupport(PreconditionError):
    """Grid edges carry too much density for the requested operation."""


class NotPowerOfTwo(PreconditionError):
    """Copy count must be an integer power of two."""


class DegenerateResult(SolverError):
    """An operation produced a density with no finite values."""


# --- state catalog --------------------------------------------------------

class GridTooNarrow(PreconditionError):
    """Grid extent is too small to hold the requested state."""


class InvalidPopulations(PreconditionError):
    """Population vector is negative or not normalized."""


class InvalidStateSpec(PreconditionError):
    """State specification fails its own invariants."""


class AngleUnsupported(PreconditionError):
    """Quadrature angle has no analytic density for this state."""


# --- distillation ---------------------------------------------------------

class ZeroMassCondition(SolverError):
    """Conditioning removed all probability mass."""


class FlatMaximum(SolverError):
    """Curvature at the maximum is too small to define a variance."""


class NonPositiveVariance(PreconditionError):
    """Variance inputs to the efficiency ratio must be positive."""


# --- thermalization depth -------------------------------------------------

class NoSqueezingAtZero(PreconditionError):
    """State shows no distillable squeezing even before thermalization."""


class NoRootInBracket(SolverError):
    """Witness does not change sign over the search bracket."""


class CutoffTooSmall(PreconditionError):
    """Number-basis cutoff truncates non-negligible mass."""


# --- phonon fits ----------------------------------------------------------

class InsufficientData(PreconditionError):
    """Too few samples for the number of fit parameters."""


class FitDiverged(SolverError):
    """Population fit failed to converge to a plausible optimum."""


# --- sampling oracle ------------------------------------------------------

class NoAcceptedSamples(SolverError):
    """Post-selection rejected every attempt."""


class TooFewSamples(PreconditionError):
    """Statistic needs more samples than were provided."""
