"""Differential operators, Poisson inversion and velocity reconstruction.

All operators are diagonal in coefficient space.  Vertical derivatives flip
parity: d/dy sin(k pi y) = k pi cos(k pi y) and d/dy cos(k pi y) =
-k pi sin(k pi y).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .fields import (
    Parity,
    SpectralField,
    laplace_symbol,
    require_parity,
    xi_values,
    y_wavenumbers,
)


def derivative_x(f: SpectralField) -> SpectralField:
    """Horizontal derivative: multiply by i xi_j. Parity unchanged."""
    xi = xi_values(f.grid)
    return SpectralField(f.grid, f.parity, f.coeff * (1j * xi[:, None]))


def derivative_y(f: SpectralField) -> SpectralField:
    """Vertical derivative; Odd -> Even with +k pi, Even -> Odd with -k pi."""
    grid = f.grid
    out = SpectralField.zeros(grid, f.parity.flipped())
    if f.parity is Parity.ODD:
        # rows k=1..ny map onto the same k of the cosine family; cosine k=0
        # receives nothing
        k = y_wavenumbers(grid, Parity.ODD)
        out.coeff[:, 1:] = (math.pi * k)[None, :] * f.coeff
    else:
        k = y_wavenumbers(grid, Parity.ODD)
        out.coeff[:, :] = -(math.pi * k)[None, :] * f.coeff[:, 1:]
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


def velocity_from_vorticity(omega: SpectralField):
    """Reconstruct velocity from vorticity through the stream function.

    u1 = d/dy (-Laplace)^{-1} omega   (Even parity),
    u2 = -d/dx (-Laplace)^{-1} omega  (Odd parity).

    Returns:
        (u1, u2); divergence-free and curl(u) = omega hold exactly per mode.
    """
    require_parity(omega, Parity.ODD, "velocity_from_vorticity")
    grid = omega.grid
    dy_sym, dx_sym = _velocity_symbols(grid)

    u1 = SpectralField.zeros(grid, Parity.EVEN)
    u1.coeff[:, 1:] = dy_sym * omega.coeff
    u2 = SpectralField(grid, Parity.ODD, dx_sym * omega.coeff)
    return u1, u2


@lru_cache(maxsize=8)
def _velocity_symbols(grid):
    """Multipliers k pi / p (u1 rows k >= 1) and -i xi / p (u2) on the Odd lattice."""
    p = laplace_symbol(grid, Parity.ODD)
    k = y_wavenumbers(grid, Parity.ODD)
    xi = xi_values(grid)
    dy_sym = (math.pi * k)[None, :] / p
    dx_sym = -1j * xi[:, None] / p
    for a in (dy_sym, dx_sym):
        a.setflags(write=False)
    return dy_sym, dx_sym


def vorticity_from_velocity(u1: SpectralField, u2: SpectralField) -> SpectralField:
    """Discrete curl d/dx u2 - d/dy u1; inverse check for the above."""
    require_parity(u1, Parity.EVEN, "vorticity_from_velocity (u1)")
    require_parity(u2, Parity.ODD, "vorticity_from_velocity (u2)")
    return derivative_x(u2) - derivative_y(u1)
