"""Closed-form scattering for a four-fold degenerate transformed potential.

The potential V(r) = -2 (d/dr)^2 ln W1(q, r) supports a square-integrable
state at the positive energy q^2 when beta = 3*alpha*q. Truncating V at
r = a turns that state into a resonance doublet flanking q in the complex
k-plane. This package evaluates the closed forms (W1, V, Jost solutions,
the embedded state), scatters off the truncated potential (regular
solution, phase shift, cross section), locates and normalizes the
resonances (argument-principle census, Gamow states), and fits the
two-resonance-plus-linear-background model of the cross section.
"""

from .background import BackgroundFit, Doublet, fit_lambda, hadamard_residual, model_phase_and_sigma, yz
from .darboux import (
    PhaseData,
    PotentialParams,
    W1Bundle,
    phase_data,
    potential_v4,
    scan_w1_sign,
    w1_bundle,
)
from .errors import (
    AmbiguousWinding,
    BicscatterError,
    BoundaryZero,
    DegenerateNormalizer,
    MaxDepthExceeded,
    MinimaNotFound,
    NearSpectralSingularity,
    NoConvergence,
    NotBicMode,
    NumericalError,
    RootCountMismatch,
    SingularFitSystem,
    SingularPotential,
    UnwrapAmbiguity,
    ValidationError,
    ZeroDerivative,
)
from .jost import (
    BoundState,
    JostValue,
    UVBundle,
    bound_state,
    jost_value,
    uv_bundle,
)
from .numerics import (
    ComplexRectangle,
    adaptive_quadrature,
    newton_complex,
    unwrap_phase,
    winding_count,
)
from .resonances import (
    GamowState,
    Resonance,
    SweepResult,
    SweepRow,
    default_search_box,
    doublet_of,
    find_resonances,
    gamow_state,
    root_derivative,
    root_function,
    sweep_cutoff,
)
from .scattering import (
    ScatteringPoint,
    TruncatedConfig,
    cross_section,
    dg,
    jost_function,
    phase_jump,
    phase_shift,
    phase_shift_unwrapped,
    regular_solution,
    scattering_point,
    sigma_landmarks,
)

# The bare package loads no scipy submodule (15-20 ms once numpy is loaded),
# and nothing in the package uses it. It is imported only because the
# benchmark's perfbench/workloads.py::versions() reads sys.modules["scipy"];
# it goes, with the runtime dependency, once that reads versions through
# importlib.metadata.
import scipy  # noqa: F401

__version__ = "0.1.0"
