"""Exact per-mode evolution of the linearized system.

Per mode (xi, k) with p = xi^2 + pi^2 k^2 the linearized vorticity and
temperature obey

    d/dt (w, th) = A (w, th),   A = [[-nu p, i xi], [i xi / p, 0]],

whose eigenvalues lambda_pm = (-nu p +- sigma)/2, sigma^2 = nu^2 p^2 -
4 xi^2 / p, also govern the scalar damped-wave equation

    phi'' + nu p phi' + (xi^2 / p) phi = F.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError
from .fields import (
    FlowState,
    Parity,
    SpectralField,
    StripGrid,
    laplace_symbol,
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

REGIONS = ("I1", "I2", "I3", "I4")


@dataclass(frozen=True)
class ModeSymbol:
    """Spectral data of one mode of the damped-wave operator."""

    xi: float
    k: int
    nu: float
    p: float
    sigma: complex
    lambda_plus: complex
    lambda_minus: complex
    region: str


@dataclass(frozen=True)
class PropagatorPair:
    """Values of the two solution operators at one mode and time."""

    l1_hat: complex
    l2_hat: complex


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


def mode_symbol(xi: float, k: int, nu: float) -> ModeSymbol:
    """Spectral data sigma, lambda_pm and region tag for one mode.

    Raises:
        ValueError: k < 1 (vorticity and temperature are sine parity).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not nu > 0:
        raise ValueError("nu must be > 0")
    p, sigma, lam_p, lam_m = sigma_lambda(float(xi), k, nu)
    region = REGIONS[int(classify_region(float(xi), k, nu)) - 1]
    return ModeSymbol(
        xi=float(xi),
        k=int(k),
        nu=float(nu),
        p=float(p),
        sigma=complex(sigma),
        lambda_plus=complex(lam_p),
        lambda_minus=complex(lam_m),
        region=region,
    )


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


def pair_values(nu_p, sigma, t, lam=None):
    """l1(t), l2(t) as arrays, stable on every branch of sigma.

    Args:
        nu_p: damping nu * p (elementwise)
        sigma: discriminant root, real or purely imaginary
        t: time, >= 0
        lam: optional (lambda_plus, lambda_minus) from sigma_lambda; the
            cancellation-free lambda_plus sharpens the slow exponential in
            the deep-overdamped corner

    l1 is the mean of two modulus-<=1 exponentials (never overflows,
    never cancels).  l2 uses t e^{-nu p t/2} sinhc(sigma t/2) except where
    Re(sigma t/2) is large enough to overflow sinh, where the difference
    quotient is safe.
    """
    nu_p = np.asarray(nu_p, dtype=float)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if lam is None:
        lam_p = 0.5 * (-nu_p + sigma)
        lam_m = 0.5 * (-nu_p - sigma)
    else:
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


def pair_derivatives(nu_p, sigma, t, lam=None, values=None):
    """Time derivatives (dl1/dt, dl2/dt) of the solution operators.

    dl1/dt is evaluated directly as (lambda+ e^{lambda+ t} +
    lambda- e^{lambda- t})/2: with the stable lambda+ the two overdamped
    terms share a sign, so the value keeps full relative accuracy even
    where the equivalent identity -(nu p/2) l1 + (sigma^2/4) l2 would
    cancel catastrophically.  dl2/dt uses the identity l1 - (nu p/2) l2.
    """
    nu_p = np.asarray(nu_p, dtype=float)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if lam is None:
        lam_p = 0.5 * (-nu_p + sigma)
        lam_m = 0.5 * (-nu_p - sigma)
    else:
        lam_p, lam_m = lam
    if values is None:
        values = pair_values(nu_p, sigma, t, lam=lam)
    l1, l2 = values
    dt_l1 = 0.5 * (lam_p * np.exp(lam_p * t) + lam_m * np.exp(lam_m * t))
    dt_l2 = l1 - 0.5 * nu_p * l2
    return dt_l1, dt_l2


def propagator_pair(sym: ModeSymbol, t: float) -> PropagatorPair:
    """Evaluate (l1, l2) at one mode; exact (1, 0) at t = 0."""
    if t < 0:
        raise ValueError("t must be >= 0")
    l1, l2 = pair_values(
        np.array(sym.nu * sym.p), np.array(sym.sigma), float(t),
        lam=(np.array(sym.lambda_plus), np.array(sym.lambda_minus)),
    )
    return PropagatorPair(complex(l1), complex(l2))


def heat_semigroup(f: SpectralField, nu: float, t: float) -> SpectralField:
    """Multiply by e^{-nu (xi^2 + pi^2 k^2) t}; parity preserved."""
    if t < 0:
        raise ValueError("t must be >= 0")
    p = laplace_symbol(f.grid, f.parity)
    return SpectralField(f.grid, f.parity, f.coeff * np.exp(-nu * p * t))


def propagate_phi(
    phi0: SpectralField,
    phi1: SpectralField,
    t: float,
    forcing_times=None,
    forcing=None,
) -> SpectralField:
    """Solve the damped-wave equation with data (phi0, phi1) and forcing F.

    phi(t) = L1(t) phi0 + L2(t) ((nu/2)(-Laplace) phi0 + phi1)
             + integral_0^t L2(t - tau) F(tau) dtau,

    the integral approximated by composite trapezoid over uniformly spaced
    samples covering [0, t].  Without forcing the result is exact per mode.

    Raises:
        GridMismatchError: fields on different grids.
        ValueError: non-uniform or incomplete forcing sample times.
    """
    require_parity(phi0, Parity.ODD, "propagate_phi")
    require_parity(phi1, Parity.ODD, "propagate_phi")
    if phi0.grid != phi1.grid:
        raise GridMismatchError("phi0 and phi1 on different grids")
    if t < 0:
        raise ValueError("t must be >= 0")

    grid = phi0.grid
    nu = grid.nu
    p, sigma, lam_p, lam_m = _grid_symbols(grid)
    l1, l2 = pair_values(nu * p, sigma, t, lam=(lam_p, lam_m))
    out = l1 * phi0.coeff + l2 * (0.5 * nu * p * phi0.coeff + phi1.coeff)

    if forcing is not None:
        if forcing_times is None:
            raise ValueError("forcing sample times are required with forcing")
        times = np.asarray(forcing_times, dtype=float)
        if len(times) != len(forcing) or len(times) < 2:
            raise ValueError("need matching times and at least two forcing samples")
        if abs(times[0]) > 1e-12 or abs(times[-1] - t) > 1e-12 * max(1.0, t):
            raise ValueError("forcing samples must cover [0, t]")
        h = np.diff(times)
        if np.abs(h - h[0]).max() > 1e-9 * h[0]:
            raise ValueError("forcing samples must be uniformly spaced")
        acc = np.zeros_like(out)
        for w, tau, fld in zip(_trapezoid_weights(len(times), h[0]), times, forcing):
            if fld.grid != grid:
                raise GridMismatchError("forcing sample on a different grid")
            require_parity(fld, Parity.ODD, "propagate_phi forcing")
            _, l2_tau = pair_values(nu * p, sigma, t - tau, lam=(lam_p, lam_m))
            acc += w * l2_tau * fld.coeff
        out = out + acc
    return SpectralField(grid, Parity.ODD, out)


def _trapezoid_weights(n, h):
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


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
    (n, 1).  A xi = 0 mode decouples and is set explicitly: omega decays
    by the heat factor, theta is frozen.
    """
    l1, l2 = pair_values(nu * p, sigma, t, lam=lam)
    damped = 0.5 * nu * p * l2
    m11 = l1 - damped
    m12 = 1j * xi * l2
    m21 = (1j * xi / p) * l2
    m22 = l1 + damped

    zero = (xi == 0.0).ravel()
    if zero.any():
        m11[zero] = np.exp(-nu * p[zero] * t)
        m12[zero] = 0.0
        m21[zero] = 0.0
        m22[zero] = 1.0
    return m11, m12, m21, m22


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
    sine rows where omega0 or theta0 holds a nonzero coefficient (NaN and
    inf included) are evaluated, and the cost scales with those rows.
    """
    require_parity(omega0, Parity.ODD, "propagate_linear_pair")
    require_parity(theta0, Parity.ODD, "propagate_linear_pair")
    if omega0.grid != theta0.grid:
        raise GridMismatchError("omega0 and theta0 on different grids")
    if t < 0:
        raise ValueError("t must be >= 0")
    grid = omega0.grid
    rows = np.flatnonzero(np.any(omega0.coeff, axis=0) | np.any(theta0.coeff, axis=0))
    m11, m12, m21, m22 = pair_matrix(grid, float(t), rows)
    om, th0 = omega0.coeff[:, rows], theta0.coeff[:, rows]
    w, th = np.zeros_like(omega0.coeff), np.zeros_like(theta0.coeff)
    w[:, rows] = m11 * om + m12 * th0
    th[:, rows] = m21 * om + m22 * th0
    return FlowState(
        t=float(t),
        omega=SpectralField(grid, Parity.ODD, w),
        theta=SpectralField(grid, Parity.ODD, th),
    )
