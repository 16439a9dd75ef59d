"""Exception taxonomy.

Two families: validation errors (bad inputs, caught before any numerics run)
and numerical errors (the computation itself failed or refused to proceed).
The CLI maps them to exit codes 2 and 3 respectively.
"""


class BicscatterError(Exception):
    """Base class for all package errors."""


class ValidationError(BicscatterError, ValueError):
    """Invalid parameters or configuration."""


class NumericalError(BicscatterError, ArithmeticError):
    """A numerical procedure failed or would return garbage."""


# --- validation family ---------------------------------------------------

class NotBicMode(ValidationError):
    """Operation requires the bound-state parameter relation beta = 3*alpha*q."""


# --- numerical family ----------------------------------------------------

class SingularPotential(NumericalError):
    """W1 vanished (or nearly so): the transformed potential diverges there."""


class NearSpectralSingularity(NumericalError):
    """k^2 too close to q^2 for the flux-normalized Jost values."""


class DegenerateNormalizer(NumericalError):
    """Too close to k = q: F+-, or a Gamow N^2, lost to its own rounding, or
    h(k) below the regular solution's threshold."""


class UnwrapAmbiguity(NumericalError):
    """Successive phase samples too far apart to unwrap reliably."""


class NoConvergence(NumericalError):
    """Iteration did not reach tolerance within the allowed steps."""


class RootCountMismatch(NumericalError):
    """Winding number disagrees with the number of converged roots."""


class ZeroDerivative(NumericalError):
    """Derivative vanished where a simple zero was expected."""


class BoundaryZero(NumericalError):
    """A zero (numerically) sits on the winding contour."""


class AmbiguousWinding(NumericalError):
    """Accumulated argument is not close enough to an integer multiple of 2*pi."""


class MaxDepthExceeded(NumericalError):
    """A subdividing procedure hit its depth limit before reaching its
    tolerance: an adaptive-quadrature panel, or an edge segment of the
    winding count that still fails its acceptance tests."""


class MinimaNotFound(NumericalError):
    """Could not locate the required cross-section minima inside the window."""


class SingularFitSystem(NumericalError):
    """The background-fit linear system is singular (degenerate resonances)."""
