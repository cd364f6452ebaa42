"""Exception types shared across the vortigen modules."""


class VortigenError(Exception):
    """Base class for all vortigen errors."""


class NonPhysicalState(VortigenError):
    """Density or pressure is not strictly positive."""


class ShapeMismatch(VortigenError):
    """Array does not conform to the grid it is paired with."""


class InsufficientSnapshots(VortigenError):
    """A time derivative was requested with fewer than two snapshots."""


class MissingSnapshots(VortigenError):
    """The nonstationary term was requested but no time series is present."""


class StagnationAtSeed(VortigenError):
    """Streamline seed sits where the velocity is below the stagnation tolerance."""


class SeedOutsideDomain(VortigenError):
    """Streamline seed lies outside the grid."""


class DegenerateTrajectory(VortigenError):
    """Trajectory is too short or degenerate to carry a frame."""


class PointOutsideDomain(VortigenError):
    """Evaluation point lies outside the grid."""


class NonConvergence(VortigenError):
    """Corrector iteration exceeded its iteration limit."""


class NonFiniteResult(VortigenError):
    """A computed result meant for a report is NaN or infinite."""


class TooCloseToBoundary(VortigenError):
    """Jump measurement stencil would leave the grid."""


class WrongSurfaceKind(VortigenError):
    """Jump relation applied to the wrong kind of discontinuity surface."""


class ParseError(VortigenError):
    """Malformed input file."""


class GridInferenceError(VortigenError):
    """Scattered input rows do not form a complete uniform structured grid."""
