"""Field representations on the periodically truncated strip.

The physical domain is [-Lx, Lx) x [0, 1] with periodic boundary in x and
walls at y = 0, 1.  Fields are expanded in Fourier modes exp(i xi_j x) with
xi_j = pi j / Lx and either a sine basis sin(k pi y), k = 1..ny (Odd parity,
fields vanishing on the walls) or a cosine basis cos(k pi y), k = 0..ny
(Even parity, fields with vanishing normal derivative).

Coefficient normalization: ``coeff[j, k]`` stores the continuum transform
value of the field at (xi_j, k), scaled so that the discrete Parseval
identity holds with a single quadrature weight dxi = pi/Lx:

    ||f||_{L2}^2 = sum_{j,k} |coeff[j,k]|^2 * dxi   (over the full spectrum)

For a raw mode amplitude a (the factor multiplying exp(i xi x) sin(k pi y))
this means coeff = a * Lx / sqrt(pi), with the Even k=0 row carrying an
extra sqrt(2) so the uniform weight stays valid.

The fields are real, so coeff at -xi_j is the conjugate of coeff at xi_j:
only the free columns j = 0..nx/2-1 are stored, and j = 0 is real.  The
x-Nyquist column j = nx/2 is not stored at all (real fields on this grid
have none; only the transforms know about it), and the sine k = ny row,
invisible on the collocation grid (sin(ny pi n / ny) = 0 at every node),
is stored but left zero.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, ParityError


class Parity(enum.Enum):
    """Vertical expansion basis: Odd = sine (Dirichlet), Even = cosine."""

    ODD = "odd"
    EVEN = "even"

    def flipped(self):
        return Parity.EVEN if self is Parity.ODD else Parity.ODD


@dataclass(frozen=True)
class StripGrid:
    """Discretization parameters for the truncated strip.

    Attributes:
        half_width_lx: half width of the periodic x-interval [-Lx, Lx)
        nx: number of Fourier modes in x (even, >= 4)
        ny: number of sine modes in y; the collocation grid has ny+1 rows
        nu: viscosity (> 0)
    """

    half_width_lx: float
    nx: int
    ny: int
    nu: float

    def __post_init__(self):
        if not self.half_width_lx > 0:
            raise ValueError(f"half_width_lx must be > 0, got {self.half_width_lx}")
        if self.nx < 4 or self.nx % 2 != 0:
            raise ValueError(f"nx must be even and >= 4, got {self.nx}")
        if self.ny < 1:
            raise ValueError(f"ny must be >= 1, got {self.ny}")
        if not self.nu > 0:
            raise ValueError(f"nu must be > 0, got {self.nu}")

    @property
    def dxi(self):
        """Frequency lattice spacing pi/Lx."""
        return math.pi / self.half_width_lx

    @property
    def dx(self):
        return 2.0 * self.half_width_lx / self.nx

    @property
    def dy(self):
        return 1.0 / self.ny

    def coeff_shape(self, parity):
        nk = self.ny if parity is Parity.ODD else self.ny + 1
        return (self.nx // 2, nk)

    def x_nodes(self):
        return -self.half_width_lx + self.dx * np.arange(self.nx)

    def y_nodes(self):
        return np.arange(self.ny + 1) / self.ny


@lru_cache(maxsize=None)
def xi_index(grid: StripGrid):
    """Integer mode numbers j = 0..nx/2-1 of the stored columns."""
    return np.arange(grid.nx // 2)


@lru_cache(maxsize=None)
def xi_values(grid: StripGrid):
    """Horizontal frequencies xi_j = pi j / Lx of the stored columns."""
    return math.pi * xi_index(grid) / grid.half_width_lx


@lru_cache(maxsize=None)
def column_multiplicity(grid: StripGrid):
    """Weights, shape (nx/2, 1), that turn a sum over the stored columns
    into one over the full spectrum: 1 at j = 0 and 2 elsewhere (the
    conjugate column -j counts too)."""
    m = np.full((grid.nx // 2, 1), 2.0)
    m[0] = 1.0
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def y_wavenumbers(grid: StripGrid, parity: Parity):
    """Vertical mode indices: 1..ny for Odd, 0..ny for Even."""
    if parity is Parity.ODD:
        return np.arange(1, grid.ny + 1)
    return np.arange(0, grid.ny + 1)


@lru_cache(maxsize=None)
def laplace_symbol(grid: StripGrid, parity: Parity):
    """p = xi^2 + (k pi)^2 over the coefficient lattice, shape coeff_shape."""
    xi = xi_values(grid)
    k = y_wavenumbers(grid, parity)
    return xi[:, None] ** 2 + (math.pi * k[None, :]) ** 2


@dataclass
class SpectralField:
    """Complex coefficient array over the (xi_j, k) lattice with a parity tag."""

    grid: StripGrid
    parity: Parity
    coeff: np.ndarray

    def __post_init__(self):
        expected = self.grid.coeff_shape(self.parity)
        self.coeff = np.ascontiguousarray(self.coeff, dtype=np.complex128)
        if self.coeff.shape != expected:
            raise ValueError(
                f"coeff shape {self.coeff.shape} does not match {expected} "
                f"for {self.parity} parity"
            )

    @classmethod
    def zeros(cls, grid, parity):
        return cls(grid, parity, np.zeros(grid.coeff_shape(parity), dtype=np.complex128))

    def copy(self):
        return SpectralField(self.grid, self.parity, self.coeff.copy())

    def __add__(self, other):
        _check_same_lattice(self, other)
        return SpectralField(self.grid, self.parity, self.coeff + other.coeff)

    def __sub__(self, other):
        _check_same_lattice(self, other)
        return SpectralField(self.grid, self.parity, self.coeff - other.coeff)


@dataclass
class PhysicalField:
    """Real samples on collocation nodes x_m = -Lx + 2Lx m/nx, y_n = n/ny."""

    grid: StripGrid
    parity: Parity
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        expected = (self.grid.nx, self.grid.ny + 1)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match {expected}"
            )


@dataclass
class FlowState:
    """Paired sine-parity vorticity and temperature coefficients at one time."""

    t: float
    omega: SpectralField
    theta: SpectralField

    def __post_init__(self):
        if self.omega.parity is not Parity.ODD or self.theta.parity is not Parity.ODD:
            raise ParityError("flow state fields must be Odd (sine) parity")
        if self.omega.grid != self.theta.grid:
            raise GridMismatchError("omega and theta live on different grids")

    @property
    def grid(self):
        return self.omega.grid

    def copy(self):
        return FlowState(self.t, self.omega.copy(), self.theta.copy())


@dataclass(frozen=True)
class ProfileComponent:
    """One sine row of initial data: amplitude * exp(-(xi/xi_scale)^2) at row k."""

    k: int
    amplitude: float
    xi_scale: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"profile component needs k >= 1, got k={self.k}")
        if not self.xi_scale > 0:
            raise ValueError("xi_scale must be > 0")

    def envelope(self, xi):
        return self.amplitude * np.exp(-((np.asarray(xi) / self.xi_scale) ** 2))


@dataclass(frozen=True)
class InitialProfile:
    """Initial temperature/vorticity data as lists of sine-row components."""

    theta: tuple = ()
    omega: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(self.theta))
        object.__setattr__(self, "omega", tuple(self.omega))
        for comp in self.theta + self.omega:
            if not isinstance(comp, ProfileComponent):
                raise TypeError("profile entries must be ProfileComponent")


def occupied_rows(*coeffs):
    """Span of k columns, first to last, where any array holds a nonzero.

    NaN and inf count as nonzero.  The span is a basic slice, so indexing
    the k axis with it gives a view; rows inside it may be empty, and
    all-zero input gives an empty span.  A span over more than half the
    columns widens to all of them: numpy walks a strided view row by row,
    and on most of the lattice that costs more than the contiguous whole.
    """
    held = np.flatnonzero(np.logical_or.reduce([np.any(c, axis=0) for c in coeffs]))
    if held.size == 0:
        return slice(0, 0)
    first, last = int(held[0]), int(held[-1])
    if 2 * (last + 1 - first) > coeffs[0].shape[1]:
        return slice(None)
    return slice(first, last + 1)


def _check_same_lattice(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")
    if a.parity is not b.parity:
        raise ParityError(f"parity mismatch: {a.parity} vs {b.parity}")


def require_parity(f, parity, what):
    if f.parity is not parity:
        raise ParityError(f"{what} requires {parity.value} parity, got {f.parity.value}")


def require_lattice(out, grid, parity, what):
    """Raise unless the field ``out`` lives on ``grid`` with ``parity``."""
    if out.grid != grid:
        raise GridMismatchError(f"{what}: out lives on a different grid")
    require_parity(out, parity, what)


#: grids whose scratch each thread keeps; the least recently used goes first
SCRATCH_GRIDS = 4

_scratch = threading.local()


def scratch(grid, name, make):
    """The object ``make()`` built for (grid, name) on this thread.

    Buffers that a hot path reuses from call to call instead of allocating:
    each thread keeps its own, for its SCRATCH_GRIDS most recently used
    grids, so two threads never share one.  A name is held only for the
    duration of one call; callers that nest use distinct names.  The
    solver's helper thread keeps its own scratch too: a lane that runs
    there takes its buffers from it and returns none of them.
    """
    grids = getattr(_scratch, "grids", None)
    if grids is None:
        grids = _scratch.grids = {}
    entries = grids.pop(grid, None)
    if entries is None:
        entries = {}
        if len(grids) >= SCRATCH_GRIDS:
            del grids[next(iter(grids))]
    grids[grid] = entries
    obj = entries.get(name)
    if obj is None:
        obj = entries[name] = make()
    return obj


def random_field(grid, parity, rng, amplitude=1.0, kmax=None, jmax=None):
    """Random band-limited real field (real j = 0 column) for tests and sampling.

    The sine/cosine k=ny row is zeroed so transforms, Parseval and
    quadrature identities are exact.
    """
    shape = grid.coeff_shape(parity)
    coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeff *= amplitude
    coeff[0] = coeff[0].real
    k = y_wavenumbers(grid, parity)
    coeff[:, k == grid.ny] = 0.0
    if kmax is not None:
        coeff[:, k > kmax] = 0.0
    if jmax is not None:
        coeff[jmax + 1 :] = 0.0
    return SpectralField(grid, parity, coeff)
