"""Shared fixtures and slow reference implementations for the test suite."""

import math

import numpy as np
import pytest

from stripflow.analysis import _envelope
from stripflow.fields import Parity, StripGrid, xi_index
from stripflow.propagators import classify_region, pair_derivatives, pair_values, sigma_lambda


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_grid():
    return StripGrid(half_width_lx=5.0 * math.pi, nx=16, ny=4, nu=0.7)


@pytest.fixture
def medium_grid():
    return StripGrid(half_width_lx=20.0 * math.pi, nx=64, ny=8, nu=1.0)


def direct_synthesis(field):
    """Slow direct evaluation of the double series at collocation nodes.

    Independent of the FFT implementation: nested sums with explicit basis
    functions, used as the transform oracle.  The stored columns are the
    half spectrum of a real field, so the series is
    Re(c_0 + 2 sum_{0 < j < nx/2} c_j e^{i xi_j x}) per basis row.
    """
    grid = field.grid
    nx, ny = grid.nx, grid.ny
    js = xi_index(grid)
    scale = math.sqrt(math.pi) / grid.half_width_lx
    xs = grid.x_nodes()
    ys = grid.y_nodes()
    out = np.zeros((nx, ny + 1), dtype=complex)
    if field.parity is Parity.ODD:
        ks = range(1, ny + 1)
        basis = lambda k, y: math.sin(k * math.pi * y)
        row_scale = {k: scale for k in ks}
    else:
        ks = range(0, ny + 1)
        basis = lambda k, y: math.cos(k * math.pi * y)
        row_scale = {k: scale for k in ks}
        row_scale[0] = scale / math.sqrt(2.0)
    for m, x in enumerate(xs):
        for n, y in enumerate(ys):
            total = 0.0j
            for row, j in enumerate(js):
                phase = (1.0 if j == 0 else 2.0) * np.exp(
                    1j * math.pi * j * x / grid.half_width_lx)
                for col, k in enumerate(ks):
                    total += row_scale[k] * field.coeff[row, col] * phase * basis(k, y)
            out[m, n] = total
    return out.real


def direct_projection(grid, values, parity):
    """Coefficients of collocation values by explicit quadrature sums.

    Rectangle rule in x against exp(-i xi_j x_m) for j = 0..nx/2-1; in y the
    discrete sine (Odd, interior rows) or cosine (Even, trapezoid end
    weights) sums.  Returns the stored-coefficient array with the invisible
    k=ny sine row zero.  FFT-independent counterpart of
    to_spectral.
    """
    nx, ny = grid.nx, grid.ny
    js = xi_index(grid)
    xs = grid.x_nodes()
    ys = grid.y_nodes()
    scale = math.sqrt(math.pi) / grid.half_width_lx
    ex = np.exp(-1j * math.pi * np.outer(js, xs) / grid.half_width_lx) / nx
    rows = ex @ values  # (nx/2 modes, ny+1 nodes)
    if parity is Parity.ODD:
        ks = np.arange(1, ny + 1)
        basis = np.sin(math.pi * np.outer(ys, ks)) * (2.0 / ny)
        row_scale = np.full(ny, scale)
    else:
        ks = np.arange(0, ny + 1)
        w = np.ones(ny + 1)
        w[0] = w[-1] = 0.5
        basis = np.cos(math.pi * np.outer(ys, ks)) * (2.0 / ny) * w[:, None]
        basis[:, 0] *= 0.5
        basis[:, -1] *= 0.5
        row_scale = np.full(ny + 1, scale)
        row_scale[0] = scale / math.sqrt(2.0)
    coeff = (rows @ basis) / row_scale[None, :]
    if parity is Parity.ODD:
        coeff[:, -1] = 0.0
    return coeff


def per_sample_region_modes(nu, region, count, rng):
    """Slow reference for analysis.sample_region_modes: one uniform draw,
    one classify_region call and one random() sign per sample, samples
    dealt to the member rows one at a time."""
    k_max = 32
    lattice = 10.0 ** np.linspace(-4.0, 3.0, 3000)
    members = {}
    for k in range(1, k_max + 1):
        sel = classify_region(lattice, k, nu) == region
        if np.any(sel):
            members[k] = np.flatnonzero(sel)
    if not members:
        return np.array([]), np.array([], dtype=int)

    per_k = np.zeros(k_max + 1, dtype=int)
    ks_cycle = sorted(members)
    for i in range(count):
        per_k[ks_cycle[i % len(ks_cycle)]] += 1

    xs, ks = [], []
    for k, idx in members.items():
        n_k = per_k[k]
        if n_k == 0:
            continue
        breaks = np.flatnonzero(np.diff(idx) > 1)
        picks = {idx[0], idx[-1]}
        picks.update(idx[b] for b in breaks)
        picks.update(idx[b + 1] for b in breaks)
        quantiles = idx[np.linspace(0, len(idx) - 1, max(n_k, 2)).astype(int)]
        picks.update(quantiles.tolist())
        for i in sorted(picks):
            lo = lattice[i]
            hi = lattice[min(i + 1, len(lattice) - 1)]
            xi = float(rng.uniform(lo, hi))
            if classify_region(np.array([xi]), k, nu)[0] != region:
                xi = lo
            sign = 1.0 if rng.random() < 0.5 else -1.0
            xs.append(sign * xi)
            ks.append(k)
    xs = np.array(xs)
    ks = np.array(ks, dtype=int)
    order = rng.permutation(len(xs))
    return xs[order], ks[order]


def per_time_symbol_constants(nu, region, samples, rng):
    """Slow reference for analysis.verify_symbol_bounds: the per-sample
    sampler and one pair_values/_envelope evaluation per time.

    Returns (constants, constants_doubled, found); constants is None for
    an empty region.
    """

    def measure(n):
        xi, k = per_sample_region_modes(nu, region, n, rng)
        if len(xi) == 0:
            return None, 0
        p, sigma, lam_p, lam_m = sigma_lambda(xi, k, nu)
        worst = {q: 0.0 for q in ("l1", "l2", "dt_l1", "dt_l2")}
        for t in np.logspace(-2, 3, 26):
            l1, l2 = pair_values(nu * p, sigma, t, lam=(lam_p, lam_m))
            d1, d2 = pair_derivatives(nu * p, t, (lam_p, lam_m), (l1, l2))
            for q, v in (("l1", l1), ("l2", l2), ("dt_l1", d1), ("dt_l2", d2)):
                env = _envelope(region, q, xi, p, nu, t)
                live = env >= 1e-250
                if np.any(live):
                    worst[q] = max(worst[q], float((np.abs(v)[live] / env[live]).max()))
        return worst, len(xi)

    constants, found = measure(samples)
    if constants is None:
        return None, None, 0
    doubled, found2 = measure(2 * samples)
    return constants, doubled, found + found2


def quadrature_l2(f):
    """L2 norm of a PhysicalField by rectangle rule in x and trapezoid in y.

    Exact for band-limited fields; used as the physical side of Parseval.
    """
    w = np.ones(f.grid.ny + 1)
    w[0] = w[-1] = 0.5
    total = float(np.sum(f.values**2 * w[None, :])) * f.grid.dx * f.grid.dy
    return math.sqrt(total)


def damped_wave(xi, k, nu, phi0, phi1, t):
    """Solution of phi'' + nu p phi' + (xi^2 / p) phi = 0 with data (phi0, phi1).

    phi(t) = l1(t) phi0 + l2(t) ((nu p / 2) phi0 + phi1), l1 and l2 from
    sigma_lambda and pair_values; elementwise over broadcast xi, k, t.
    """
    p, sigma, lam_p, lam_m = sigma_lambda(xi, k, nu)
    l1, l2 = pair_values(nu * p, sigma, t, (lam_p, lam_m))
    return l1 * phi0 + l2 * (0.5 * nu * p * phi0 + phi1)


def duhamel_pair(xi, k, nu, omega0, theta0, t_end, n=8001):
    """(omega, theta) of one linear-pair mode at t_end, without exp(tA).

    theta obeys the damped-wave equation with d/dt theta(0) = -u2(0) =
    (i xi / p) omega0; omega then follows from omega' = -nu p omega +
    i xi theta by the Duhamel integral, a trapezoid rule over n samples of
    theta on [0, t_end].
    """
    p = xi * xi + (math.pi * k) ** 2
    taus = np.linspace(0.0, t_end, n)
    theta = damped_wave(xi, k, nu, theta0, 1j * xi / p * omega0, taus)
    omega = np.trapezoid(
        np.exp(-nu * p * (t_end - taus)) * 1j * xi * theta, taus
    ) + math.exp(-nu * p * t_end) * omega0
    return omega, theta[-1]
