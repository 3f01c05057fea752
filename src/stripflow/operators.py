"""Differential operators, Poisson inversion and velocity reconstruction.

All operators are diagonal in coefficient space.  Vertical derivatives flip
parity: d/dy sin(k pi y) = k pi cos(k pi y) and d/dy cos(k pi y) =
-k pi sin(k pi y).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import (
    Parity,
    SpectralField,
    laplace_symbol,
    require_lattice,
    require_parity,
    xi_values,
    y_wavenumbers,
)


def derivative_x(f: SpectralField, out: SpectralField | None = None) -> SpectralField:
    """Horizontal derivative: multiply by i xi_j. Parity unchanged.

    ``out``, a field of f's grid and parity (f itself allowed), receives
    the result and is returned; by default a new field does.
    """
    out = SpectralField.zeros(f.grid, f.parity) if out is None else out
    require_lattice(out, f.grid, f.parity, "derivative_x")
    np.multiply(f.coeff, _derivative_symbols(f.grid, f.parity)[0], out=out.coeff)
    return out


def derivative_y(f: SpectralField, out: SpectralField | None = None) -> SpectralField:
    """Vertical derivative; Odd -> Even with +k pi, Even -> Odd with -k pi.

    ``out``, a field of f's grid and the flipped parity, receives the
    result and is returned; by default a new field does.
    """
    grid = f.grid
    out = SpectralField.zeros(grid, f.parity.flipped()) if out is None else out
    require_lattice(out, grid, f.parity.flipped(), "derivative_y")
    _, k_pi, minus_k_pi = _derivative_symbols(grid, f.parity)
    if f.parity is Parity.ODD:
        # rows k=1..ny map onto the same k of the cosine family; cosine k=0
        # receives nothing.  Scaling the whole contiguous lattice in place
        # spares numpy a lattice-sized buffer for the strided output.
        out.coeff[:, 1:] = f.coeff
        np.multiply(out.coeff, k_pi, out=out.coeff)
        out.coeff[:, 0] = 0.0
    else:
        np.multiply(minus_k_pi, f.coeff[:, 1:], out=out.coeff)
    return out


def neg_laplacian(f: SpectralField) -> SpectralField:
    """-Laplace f: multiply by p = xi^2 + (k pi)^2."""
    return SpectralField(f.grid, f.parity, f.coeff * laplace_symbol(f.grid, f.parity))


def poisson_inverse(f: SpectralField) -> SpectralField:
    """Solve -Laplace(phi) = f with homogeneous Dirichlet walls.

    Defined for Odd parity only; the symbol 1/(xi^2 + pi^2 k^2) is bounded
    by 1/pi^2 (attained at xi = 0, k = 1).
    """
    require_parity(f, Parity.ODD, "poisson_inverse")
    return SpectralField(f.grid, f.parity, f.coeff / laplace_symbol(f.grid, Parity.ODD))


def velocity_from_vorticity(omega: SpectralField, out=None):
    """Reconstruct velocity from vorticity through the stream function.

    u1 = d/dy (-Laplace)^{-1} omega   (Even parity),
    u2 = -d/dx (-Laplace)^{-1} omega  (Odd parity).

    ``out``, an (Even, Odd) pair of fields on omega's grid, receives
    (u1, u2) and is returned; by default a new pair does.

    Returns:
        (u1, u2); divergence-free and curl(u) = omega hold exactly per mode.
    """
    require_parity(omega, Parity.ODD, "velocity_from_vorticity")
    grid = omega.grid
    if out is None:
        out = (SpectralField.zeros(grid, Parity.EVEN), SpectralField.zeros(grid, Parity.ODD))
    u1, u2 = out
    require_lattice(u1, grid, Parity.EVEN, "velocity_from_vorticity (u1)")
    require_lattice(u2, grid, Parity.ODD, "velocity_from_vorticity (u2)")
    dy_sym, dx_sym = _velocity_symbols(grid)
    # as in derivative_y, scaling the contiguous Even lattice in place
    # spares numpy a lattice-sized buffer for the strided output
    u1.coeff[:, 0] = 0.0
    u1.coeff[:, 1:] = omega.coeff
    np.multiply(u1.coeff, dy_sym, out=u1.coeff)
    np.multiply(dx_sym, omega.coeff, out=u2.coeff)
    return u1, u2


@lru_cache(maxsize=16)
def _derivative_symbols(grid, parity):
    """Multipliers i xi (d/dx) on the whole lattice of the parity (an (n, 1)
    column would cost a numpy buffer a call), k pi over the cosine rows
    k = 0..ny (d/dy of a sine row) and -k pi over the sine rows k = 1..ny."""
    ixi = np.broadcast_to(1j * xi_values(grid)[:, None], grid.coeff_shape(parity)).copy()
    k_pi = (math.pi * y_wavenumbers(grid, Parity.EVEN))[None, :]
    minus_k_pi = -k_pi[:, 1:]
    for a in (ixi, k_pi, minus_k_pi):
        a.setflags(write=False)
    return ixi, k_pi, minus_k_pi


@lru_cache(maxsize=8)
def _velocity_symbols(grid):
    """Multipliers k pi / p on the Even lattice (u1; 0 at k = 0, where p
    vanishes at xi = 0) and -i xi / p on the Odd lattice (u2).  Both are
    complex, so that products with coefficients need no cast buffer."""
    p = laplace_symbol(grid, Parity.ODD)
    xi = xi_values(grid)
    dy_sym = np.zeros(grid.coeff_shape(Parity.EVEN), dtype=np.complex128)
    dy_sym[:, 1:] = _derivative_symbols(grid, Parity.EVEN)[1][:, 1:] / p
    dx_sym = -1j * xi[:, None] / p
    for a in (dy_sym, dx_sym):
        a.setflags(write=False)
    return dy_sym, dx_sym


def vorticity_from_velocity(u1: SpectralField, u2: SpectralField) -> SpectralField:
    """Discrete curl d/dx u2 - d/dy u1; inverse check for the above."""
    require_parity(u1, Parity.EVEN, "vorticity_from_velocity (u1)")
    require_parity(u2, Parity.ODD, "vorticity_from_velocity (u2)")
    return derivative_x(u2) - derivative_y(u1)
