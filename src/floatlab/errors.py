"""Exception hierarchy shared by all floatlab modules."""


class FloatLabError(Exception):
    """Base class for every error raised by this package."""


class ExcludedLambda(FloatLabError):
    """The complex frequency lies on the branch-cut set of the square root."""


class DegenerateLambda(FloatLabError):
    """The complex frequency is one of the degenerate points 0 or -1/mu."""


class RootFindingFailure(FloatLabError):
    """Polynomial root solver did not converge."""


class NonDecayingOmega(FloatLabError):
    """Half-line operator requested with Re(omega) <= 0."""


class GridMismatch(FloatLabError):
    """Two half-line functions live on incompatible grids or sides."""


class SpectrumProximity(FloatLabError):
    """Resolvent requested too close to the spectrum set."""


class SingularMatrix(FloatLabError):
    """A linear solve hit a numerically singular matrix."""


class InvalidGeometry(FloatLabError):
    """Grid construction parameters are inconsistent."""


class CompatibilityViolation(FloatLabError):
    """Initial data violates the flux/velocity compatibility condition."""


class SingularSystem(FloatLabError):
    """Implicit time-stepping matrix is singular for the requested step."""


class UnstableClosedLoop(FloatLabError):
    """A closed-loop matrix required to be Hurwitz has an unstable eigenvalue."""


class NoConvergence(FloatLabError):
    """An iterative solver exhausted its iteration budget."""


class ImaginaryAxisEigenvalue(FloatLabError):
    """Matrix sign iteration is undefined for eigenvalues on the imaginary axis."""


class JumpMismatch(FloatLabError):
    """A segment start reached by the jump map disagrees with the march it stands for."""
