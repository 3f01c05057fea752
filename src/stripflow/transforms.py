"""Transforms between coefficient space and collocation values.

Both directions use real transforms.  In x, the stored columns
j = 0..nx/2-1 are the half spectrum that irfft synthesizes and rfft
computes, short of its x-Nyquist column j = nx/2: a real field on this
grid has none, and this module is the only one that knows the column.
The nodes start at -Lx, which contributes the alternating phase (-1)^j
relative to the usual 0-based convention, applied as a shift by half a
period.  In y,
sine series run as a type-I discrete sine transform over the ny-1 interior
rows (Odd wall rows are exactly zero) and cosine series
as a type-I discrete cosine transform over all ny+1 rows, so Odd and Even
fields share the same collocation nodes and can be multiplied pointwise.
The y-transforms are products with one cached real matrix per grid,
parity and direction, which also carries every constant factor
(coefficient normalization, FFT and DST/DCT scalings).  A product costs
O(ny^2) per node row against the FFT's O(ny log ny); at nx = 1024 it
measured faster up to about ny = 64 (ny = 32: 18 us against 70 us, one
BLAS thread on a 2-core x86 box), and the toolkit's grids have ny <= 32.

to_physical and to_spectral are exact inverses (to rounding) on the
band-limited space: no x-Nyquist content, zero k=ny sine row.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.fft import dct, dst, irfft, rfft

from .errors import ParityError
from .fields import (
    Parity,
    PhysicalField,
    SpectralField,
    StripGrid,
    require_lattice,
    scratch,
)

#: Odd-parity physical input whose wall rows exceed this (relative to the
#: field maximum, with an absolute floor of 1) is rejected as a parity bug.
BOUNDARY_TOL = 1e-12


@lru_cache(maxsize=16)
def _y_matrices(grid: StripGrid, parity: Parity):
    """(synthesis, analysis) real matrices of the y-direction transform.

    Synthesis (nk x ny+1) maps the nk visible rows of a column block onto
    the ny+1 node rows, analysis (ny+1 x nk) the node rows back onto the
    visible rows.  The sine k=ny row vanishes at every node, so Odd fields
    have nk = ny-1 visible rows and Even fields nk = ny+1.  Both are
    DST-I/DCT-I matrices built from the transform of the identity.
    Synthesis also carries the amplitude scale, the DST-I/DCT-I row
    weights (DST-I doubles every term, DCT-I all but the two end rows)
    and the nx that undoes irfft's normalization; analysis undoes them
    with the 1/nx of rfft and the 1/(2 ny) of the y-transforms' inverse.
    The Odd wall columns of synthesis and wall rows of analysis are
    exactly zero.
    """
    ny = grid.ny
    if parity is Parity.ODD:
        nodes, nk, transform = slice(1, ny), ny - 1, dst
    else:
        nodes, nk, transform = slice(None), ny + 1, dct
    scale = np.full(nk, math.sqrt(math.pi) / grid.half_width_lx)
    weight = np.full(nk, 0.5)
    if parity is Parity.EVEN:
        scale[0] /= math.sqrt(2.0)
        weight[0] = weight[-1] = 1.0
    synthesis = np.zeros((nk, ny + 1))
    analysis = np.zeros((ny + 1, nk))
    if nk:
        basis = transform(np.eye(nk), type=1, axis=1)
        synthesis[:, nodes] = (grid.nx * scale * weight)[:, None] * basis
        analysis[nodes] = basis * (1.0 / (weight * (2 * ny) * scale))[None, :] / grid.nx
    for a in (synthesis, analysis):
        a.setflags(write=False)
    return synthesis, analysis


def to_physical(f: SpectralField, out: PhysicalField | None = None) -> PhysicalField:
    """Evaluate the double series of the real field f at the collocation nodes.

    irfft reads only the real part of the j = 0 column; Odd wall rows come
    out exactly zero.  ``out``, a field of f's grid and parity,
    receives the values and is returned; by default a new field does.
    """
    grid = f.grid
    half = grid.nx // 2
    if out is None:
        out = PhysicalField(grid, f.parity, np.empty((grid.nx, grid.ny + 1)))
    require_lattice(out, grid, f.parity, "to_physical")
    synthesis = _y_matrices(grid, f.parity)[0]
    nk = synthesis.shape[0]

    # irfft reads an x-Nyquist column, so it gets a copy whose last row,
    # that column, stays zero (padding a shorter input would cost it a new
    # lattice a call)
    c = scratch(grid, ("to_physical", f.parity), lambda: np.zeros((half + 1, nk), complex))
    c[:half] = f.coeff[:, :nk]
    cols = irfft(c, n=grid.nx, axis=0)

    # the nodes start at -Lx: the phase (-1)^j is a shift by half a period
    np.matmul(cols[half:], synthesis, out=out.values[:half])
    np.matmul(cols[:half], synthesis, out=out.values[half:])
    return out


def to_spectral(f: PhysicalField, out: SpectralField | None = None) -> SpectralField:
    """Inverse of to_physical on the band-limited space.

    ``out``, a field of f's grid and parity, receives the coefficients and
    is returned; by default a new field does.

    A non-finite Odd wall row passes the wall check (NaN compares false)
    and comes out as non-finite coefficients, not as a ParityError: the
    cause is a blow-up, not a parity bug, and ``step``'s finiteness check
    reports it as NumericalBlowup with its mode index.

    Raises:
        ParityError: Odd input with finite wall rows that are not
            (numerically) zero.
    """
    grid = f.grid
    ny, half = grid.ny, grid.nx // 2
    v = f.values
    if f.parity is Parity.ODD:
        scale = max(1.0, float(v.max()), -float(v.min()))
        worst = max(float(np.abs(v[:, 0]).max()), float(np.abs(v[:, ny]).max()))
        if worst > BOUNDARY_TOL * scale:
            raise ParityError(
                f"odd-parity input has nonzero wall rows (max {worst:.3e}, "
                f"field scale {scale:.3e})"
            )

    if out is None:
        out = SpectralField(grid, f.parity, np.empty(grid.coeff_shape(f.parity),
                                                     dtype=np.complex128))
    require_lattice(out, grid, f.parity, "to_spectral")
    coeff = out.coeff
    analysis = _y_matrices(grid, f.parity)[1]
    nk = analysis.shape[1]

    # Odd wall rows are zero to BOUNDARY_TOL, carry no sine content and
    # meet zero rows of the analysis matrix; the half-period shift is the
    # node phase (-1)^j, as in to_physical
    rows = scratch(grid, ("to_spectral", f.parity), lambda: np.empty((grid.nx, nk)))
    np.matmul(v[half:], analysis, out=rows[:half])
    np.matmul(v[:half], analysis, out=rows[half:])
    spec = rfft(rows, axis=0)

    # the x-Nyquist column and the k=ny sine row are invisible on this
    # grid: the first is not stored, the second is left zero
    coeff[:, :nk] = spec[:half]
    coeff[:, nk:] = 0.0
    return out


def pad_modes(f: SpectralField) -> SpectralField:
    """Embed coefficients in a grid refined twice in both directions.

    The frequency lattice of the fine grid is a superset of the coarse one
    (same Lx), so the embedded field represents the same function; used for
    sup-norm evaluation on a refined collocation grid.
    """
    grid = f.grid
    fine = StripGrid(grid.half_width_lx, 2 * grid.nx, 2 * grid.ny, grid.nu)
    out = SpectralField.zeros(fine, f.parity)
    out.coeff[: f.coeff.shape[0], : f.coeff.shape[1]] = f.coeff
    return out


def physical_max(f: SpectralField) -> float:
    """Max of |f| sampled on the twice finer collocation grid of pad_modes."""
    return float(np.abs(to_physical(pad_modes(f)).values).max())


def quadrature_l1(f: PhysicalField) -> float:
    """L1 norm by rectangle rule in x and trapezoid in y."""
    w = np.ones(f.grid.ny + 1)
    w[0] = w[-1] = 0.5
    return float(np.sum(np.abs(f.values) * w[None, :])) * f.grid.dx * f.grid.dy
