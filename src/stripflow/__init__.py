"""Spectral simulation and decay-rate verification on the horizontal strip.

Core objects: StripGrid / SpectralField (mixed Fourier and sine-cosine
coefficients), exact per-mode linear propagators, continuum frequency
analysis, a dealiased pseudo-spectral solver for the full perturbation
system, and rate-fitting diagnostics.
"""

__version__ = "0.1.0"

from .analysis import (
    QuadratureSpec,
    continuum_linear_decay,
    kernel_decay_integral,
    nu_star,
    truncation_honesty_tmax,
    verify_symbol_bounds,
)
from .diagnostics import (
    DecayCurve,
    NormId,
    RateFit,
    energy_report,
    fit_rate,
    norm,
    theorem_suite,
)
from .errors import (
    CflViolation,
    ConfigError,
    GridMismatchError,
    NumericalBlowup,
    ParityError,
    StripflowError,
    WindowTooShort,
)
from .fields import (
    FlowState,
    InitialProfile,
    Parity,
    PhysicalField,
    ProfileComponent,
    SpectralField,
    StripGrid,
    random_field,
)
from .operators import (
    derivative_x,
    derivative_y,
    neg_laplacian,
    poisson_inverse,
    velocity_from_vorticity,
)
from .propagators import propagate_linear_pair
from .solver import (
    StepperConfig,
    make_initial_data,
    nonlinear_term,
    step,
    trajectory,
)
from .transforms import to_physical, to_spectral
