"""Exact per-mode evolution of the linearized system.

Per mode (xi, k) with p = xi^2 + pi^2 k^2 the linearized vorticity and
temperature obey

    d/dt (w, th) = A (w, th),   A = [[-nu p, i xi], [i xi / p, 0]],

whose eigenvalues lambda_pm = (-nu p +- sigma)/2, sigma^2 = nu^2 p^2 -
4 xi^2 / p, also govern the damped-wave equation that th obeys,

    th'' + nu p th' + (xi^2 / p) th = 0.

The two solution operators are

    l1(t) = (e^{lambda_+ t} + e^{lambda_- t}) / 2
    l2(t) = (e^{lambda_+ t} - e^{lambda_- t}) / sigma
          = t e^{-nu p t / 2} sinhc(sigma t / 2)

and the 2x2 matrix exponential is exp(tA) = l1 I + l2 (A + (nu p / 2) I).
The sinhc form is branch-independent and removes the catastrophic
cancellation of the raw difference quotient near sigma = 0 (the boundary
between the overdamped and oscillatory spectral regions).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError
from .fields import (
    FlowState,
    Parity,
    SpectralField,
    StripGrid,
    occupied_rows,
    require_parity,
    xi_values,
)

#: |z| below which sinh(z)/z switches to its Taylor polynomial; the 4-term
#: series error at the threshold is ~1e-38, far below double rounding.
SINHC_TAYLOR_THRESHOLD = 1e-4

#: Re(z) above which sinh(z) would approach overflow and l2 falls back to
#: the difference quotient (cancellation-free there: the two exponentials
#: differ by a factor e^{-2 Re z} < 1e-260).
SINHC_OVERFLOW_THRESHOLD = 300.0


def classify_region(xi, k, nu):
    """Frequency-region tags per the printed inequalities.

    I1: xi^2 <  nu^2 p^3 / 16
    I2: nu^2 p^3 / 16 <= xi^2 <  nu^2 p^3 / 4
    I3: nu^2 p^3 / 4  <= xi^2 <  4 nu^2 p^3
    I4: xi^2 >= 4 nu^2 p^3

    The four sets are mutually exclusive and exhaustive as written.
    Vectorized; returns an integer array with values 1..4.
    """
    xi = np.asarray(xi, dtype=float)
    k = np.asarray(k)
    p = xi**2 + (math.pi * k) ** 2
    x = xi**2
    c = nu * nu * p**3
    return np.where(
        x >= 4.0 * c, 4, np.where(x >= c / 4.0, 3, np.where(x >= c / 16.0, 2, 1))
    )


def sigma_lambda(xi, k, nu):
    """p, sigma and lambda_pm arrays; principal branch, Im(sigma) >= 0.

    In the overdamped regime lambda_+ is evaluated through
    -2 xi^2 / (p (nu p + sigma)), which keeps full relative accuracy where
    the raw difference (-nu p + sigma)/2 would cancel catastrophically
    (sigma close to nu p, i.e. xi^2/p << (nu p)^2).
    """
    xi = np.asarray(xi, dtype=float)
    p = xi**2 + (math.pi * np.asarray(k)) ** 2
    radicand = (nu * p) ** 2 - 4.0 * xi**2 / p
    sigma = np.sqrt(radicand.astype(np.complex128))
    overdamped = radicand >= 0
    lam_p = np.where(
        overdamped,
        -2.0 * xi**2 / (p * (nu * p + sigma)),
        0.5 * (-nu * p + sigma),
    )
    lam_m = 0.5 * (-nu * p - sigma)
    return p, sigma, lam_p, lam_m


def _sinhc(z):
    """sinh(z)/z with the removable singularity filled by Taylor series."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < SINHC_TAYLOR_THRESHOLD
    zb = np.where(small, 1.0, z)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = np.sinh(zb) / zb
    if not small.any():
        # away from t = 0 and sigma = 0 no entry needs the series
        return direct
    zs = np.where(small, z, 0.0)
    series = 1.0 + zs**2 / 6.0 + zs**4 / 120.0 + zs**6 / 5040.0
    return np.where(small, series, direct)


def pair_values(nu_p, sigma, t, lam):
    """l1(t), l2(t) as arrays, stable on every branch of sigma.

    Args:
        nu_p: damping nu * p (elementwise)
        sigma: discriminant root, real or purely imaginary
        t: time, >= 0
        lam: (lambda_plus, lambda_minus) from sigma_lambda; the
            cancellation-free lambda_plus sharpens the slow exponential in
            the deep-overdamped corner

    l1 is the mean of two modulus-<=1 exponentials (never overflows,
    never cancels).  l2 uses t e^{-nu p t/2} sinhc(sigma t/2) except where
    Re(sigma t/2) is large enough to overflow sinh, where the difference
    quotient is safe.
    """
    nu_p = np.asarray(nu_p, dtype=float)
    sigma = np.asarray(sigma, dtype=np.complex128)
    lam_p, lam_m = lam
    ep = np.exp(lam_p * t)
    em = np.exp(lam_m * t)
    l1 = 0.5 * (ep + em)

    z = 0.5 * sigma * t
    huge = z.real > SINHC_OVERFLOW_THRESHOLD
    # the placeholder 1 keeps huge entries (overwritten below) out of both
    # sinh overflow and the near-zero series branch of _sinhc
    l2 = t * np.exp(-0.5 * nu_p * t) * _sinhc(np.where(huge, 1.0, z))
    if np.any(huge):
        sig_safe = np.where(huge, sigma, 1.0)
        l2 = np.where(huge, (ep - em) / sig_safe, l2)
    return l1, l2


def pair_derivatives(nu_p, t, lam, values):
    """Time derivatives (dl1/dt, dl2/dt) of the solution operators.

    lam is (lambda_plus, lambda_minus) from sigma_lambda and values is
    (l1, l2) from pair_values at the same modes and time.

    dl1/dt is evaluated directly as (lambda+ e^{lambda+ t} +
    lambda- e^{lambda- t})/2: with the stable lambda+ the two overdamped
    terms share a sign, so the value keeps full relative accuracy even
    where the equivalent identity -(nu p/2) l1 + (sigma^2/4) l2 would
    cancel catastrophically.  dl2/dt uses the identity l1 - (nu p/2) l2.
    """
    lam_p, lam_m = lam
    l1, l2 = values
    dt_l1 = 0.5 * (lam_p * np.exp(lam_p * t) + lam_m * np.exp(lam_m * t))
    dt_l2 = l1 - 0.5 * nu_p * l2
    return dt_l1, dt_l2


@lru_cache(maxsize=8)
def _grid_symbols(grid: StripGrid):
    """sigma_lambda over the grid's Odd lattice, computed once per grid."""
    xi = xi_values(grid)[:, None]
    k = np.arange(1, grid.ny + 1)[None, :]
    p, sigma, lam_p, lam_m = sigma_lambda(xi, k, grid.nu)
    for a in (p, sigma, lam_p, lam_m):
        a.setflags(write=False)
    return p, sigma, lam_p, lam_m


def pair_exponential(xi, p, sigma, lam, nu, t):
    """Entries (m11, m12, m21, m22) of exp(tA), elementwise over the modes.

    m11 = l1 - (nu p / 2) l2, m12 = i xi l2, m21 = (i xi / p) l2,
    m22 = l1 + (nu p / 2) l2, with p, sigma and lam = (lambda_+, lambda_-)
    from sigma_lambda.  xi runs along their leading axis, shape (n,) or
    (n, 1).  nu is a scalar or an array shaped like p.  A xi = 0 mode
    decouples and is set explicitly: omega decays by the heat factor,
    theta is frozen.
    """
    nu_p = nu * p
    l1, l2 = pair_values(nu_p, sigma, t, lam=lam)
    damped = 0.5 * nu_p * l2
    m11 = l1 - damped
    m12 = 1j * xi * l2
    m21 = (1j * xi / p) * l2
    m22 = l1 + damped

    zero = (xi == 0.0).ravel()
    if zero.any():
        m11[zero] = np.exp(-nu_p[zero] * t)
        m12[zero] = 0.0
        m21[zero] = 0.0
        m22[zero] = 1.0
    return m11, m12, m21, m22


def apply_pair(m, omega, theta, out=(None, None), tmp=None):
    """exp(tA) (omega, theta) for the entries m = (m11, m12, m21, m22).

    ``out``, a pair of arrays, receives the result and is returned; a
    None entry is a new array.  ``tmp`` holds the product in flight.  No
    given array may share memory with omega or theta.
    """
    m11, m12, m21, m22 = m
    w = np.multiply(m11, omega, out=out[0])
    th = np.multiply(m21, omega, out=out[1])
    tmp = np.multiply(m12, theta, out=tmp)
    w += tmp
    th += np.multiply(m22, theta, out=tmp)
    return w, th


def pair_matrix(grid: StripGrid, t: float, rows=slice(None)):
    """pair_exponential on the grid's Odd lattice, at the sine rows ``rows``.

    ``rows`` indexes the k axis (column k - 1 of the coefficient array);
    the entries have one column per selected row.
    """
    p, sigma, lam_p, lam_m = (a[:, rows] for a in _grid_symbols(grid))
    xi = xi_values(grid)[:, None]
    return pair_exponential(xi, p, sigma, (lam_p, lam_m), grid.nu, t)


@lru_cache(maxsize=4)
def pair_step_matrix(grid: StripGrid, t: float):
    """pair_matrix cached for the time stepper, which reuses one dt/2.

    Callers that ask for many distinct times use pair_matrix directly, so
    the cache holds a few lattice-sized entries, not one per time.
    """
    out = pair_matrix(grid, t)
    for m in out:
        m.setflags(write=False)
    return out


def propagate_linear_pair(
    omega0: SpectralField, theta0: SpectralField, t: float
) -> FlowState:
    """Evolve the coupled linear pair exactly by its matrix exponential.

    exp(tA) has finite entries, so it maps a zero mode to zero: only the
    span of sine rows where omega0 or theta0 holds a nonzero coefficient
    (fields.occupied_rows) is evaluated, and the cost scales with it.
    """
    require_parity(omega0, Parity.ODD, "propagate_linear_pair")
    require_parity(theta0, Parity.ODD, "propagate_linear_pair")
    if omega0.grid != theta0.grid:
        raise GridMismatchError("omega0 and theta0 on different grids")
    if t < 0:
        raise ValueError("t must be >= 0")
    grid = omega0.grid
    rows = occupied_rows(omega0.coeff, theta0.coeff)
    m = pair_matrix(grid, float(t), rows)
    w, th = np.zeros_like(omega0.coeff), np.zeros_like(theta0.coeff)
    w[:, rows], th[:, rows] = apply_pair(m, omega0.coeff[:, rows], theta0.coeff[:, rows])
    return FlowState(
        t=float(t),
        omega=SpectralField(grid, Parity.ODD, w),
        theta=SpectralField(grid, Parity.ODD, th),
    )
