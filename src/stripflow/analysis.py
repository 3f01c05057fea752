"""Continuum-frequency analysis: critical viscosity, region statistics,
pointwise symbol bounds, kernel-decay integrals and truncation-free decay
curves for the linear semigroup.

Everything here works on the continuum frequency lattice R x {1, 2, ...}
(no periodic truncation in x), with Gauss-Legendre composite quadrature in
xi.  Decay exponents extracted from these curves are free of the
exponential cutoff a finite x-interval would impose.

The symbol-bound check works in whole-array passes: the sampler makes one
generator draw per sine row, and the checker evaluates all its times in
one broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import DecayCurve, NormId, norm_weight
from .fields import InitialProfile
from .propagators import (
    apply_pair,
    classify_region,
    pair_derivatives,
    pair_exponential,
    pair_values,
    sigma_lambda,
)

#: nu*^2 = sup over (xi, k) of 4 xi^2 / (xi^2 + pi^2 k^2)^3, attained at
#: k = 1, xi^2 = pi^2 / 2; closed form 16 / (27 pi^4).
NU_STAR_SQUARED = 16.0 / (27.0 * math.pi**4)


def nu_star() -> float:
    """Critical viscosity separating all-real sigma from oscillatory modes."""
    return math.sqrt(NU_STAR_SQUARED)


def nu_star_grid_search(k_min=1):
    """Brute-force confirmation of nu*^2 by dense grid scan.

    Scans 0 <= xi <= 50 and k_min <= k <= 50 with a budget of 1e6 points:
    half on a uniform sweep per k and the other half refining around the
    best coarse cell, so the quadratic peak is resolved well below 1e-9.

    Returns:
        (best_value, best_xi, best_k): max of 4 xi^2 / p^3 over the grid.
    """

    def ratio(xi, k):
        p = xi**2 + (math.pi * k) ** 2
        return 4.0 * xi**2 / p**3

    xi_max, k_max, points = 50.0, 50, 1_000_000
    per_k = max(points // (2 * max(k_max - k_min + 1, 1)), 1000)
    best = (0.0, 0.0, k_min)
    for k in range(k_min, k_max + 1):
        xi = np.linspace(0.0, xi_max, per_k)
        vals = ratio(xi, k)
        i = int(np.argmax(vals))
        if vals[i] > best[0]:
            best = (float(vals[i]), float(xi[i]), k)

    coarse_step = xi_max / (per_k - 1)
    lo = max(best[1] - 2 * coarse_step, 0.0)
    hi = min(best[1] + 2 * coarse_step, xi_max)
    xi = np.linspace(lo, hi, points // 2)
    vals = ratio(xi, best[2])
    i = int(np.argmax(vals))
    if vals[i] > best[0]:
        best = (float(vals[i]), float(xi[i]), best[2])
    return best


# ---------------------------------------------------------------------------
# symbol-bound verification
# ---------------------------------------------------------------------------

def _envelope(region, quantity, xi, p, nu, t):
    """Printed decay envelope for |l1|, |l2|, |dt l1|, |dt l2| per region.

    Region I1 (and the overdamped regime nu >= nu*): the pair decays like
    e^{-xi^2 t / (nu p^2)}; its time derivatives pick up the extra decaying
    piece nu p e^{-nu p t / 2}.  Regions I2..I4 have the exponential rates
    nu p / 32, nu p / 4 (for l2) and nu p / 2 as printed.
    """
    slow = np.exp(-(xi**2) * t / (nu * p**2))
    visc = np.exp(-0.5 * nu * p * t)
    if region == 1:
        if quantity in ("l1", "l2"):
            return slow
        return (xi**2 / (nu * p**2)) * slow + nu * p * visc
    if region == 2:
        if quantity == "l1":
            return np.exp(-nu * p * t / 16.0)
        return np.exp(-nu * p * t / 32.0)
    if region == 3:
        if quantity in ("l1", "dt_l1"):
            return visc
        return np.exp(-nu * p * t / 4.0)
    if region == 4:
        return visc
    raise ValueError(f"unknown region {region}")


@dataclass
class SymbolBoundReport:
    """Outcome of sampling one region against its printed envelopes."""

    nu: float
    region: int
    requested: int
    found: int
    empty: bool
    constants: dict = field(default_factory=dict)
    constants_doubled: dict = field(default_factory=dict)

    @property
    def stable(self):
        """Constants move by at most 10% when the sample count doubles."""
        if self.empty:
            return True
        for q, c in self.constants.items():
            c2 = self.constants_doubled[q]
            if c2 > 1.10 * c + 1e-30:
                return False
        return True


def sample_region_modes(nu, region, count, rng):
    """Draw (xi, k) pairs from one frequency region, stratified per k.

    The region's xi-sections for k = 1..32 are found on a log lattice over
    1e-4 <= xi <= 1e3, and ``count`` is split over the member rows (the
    first ``count % rows`` take one more).  A row gives one sample per
    distinct pick: its section endpoints, where sigma degenerates and the
    envelope ratios peak, and its stratified quantiles.  Each sample is
    jittered inside its lattice cell (kept at the cell's lower end if the
    jitter leaves the region) and given a random sign; the samples come
    back shuffled.
    """
    lattice = 10.0 ** np.linspace(-4.0, 3.0, 3000)
    member = classify_region(lattice, np.arange(1, 33)[:, None], nu) == region
    rows = np.flatnonzero(member.any(axis=1)) + 1
    if len(rows) == 0 or count < 1:
        return np.array([]), np.array([], dtype=int)

    share, extra = divmod(count, len(rows))
    xs, ks = [], []
    for i, k in enumerate(rows[:count]):  # rows past the first count get no share
        idx = np.flatnonzero(member[k - 1])
        breaks = np.flatnonzero(np.diff(idx) > 1)
        quantiles = np.linspace(0, len(idx) - 1, max(share + (i < extra), 2)).astype(int)
        picks = np.unique(np.concatenate(
            (idx[[0, -1]], idx[breaks], idx[breaks + 1], idx[quantiles])))
        lo, hi = lattice[picks], lattice[np.minimum(picks + 1, len(lattice) - 1)]
        # per pick one jitter, then one sign: the per-sample draw order
        jitter, sign = rng.random((len(picks), 2)).T
        xi = lo + (hi - lo) * jitter
        xi = np.where(classify_region(xi, k, nu) == region, xi, lo)
        xs.append(np.where(sign < 0.5, xi, -xi))
        ks.append(np.full(len(picks), k))
    xs, ks = np.concatenate(xs), np.concatenate(ks)
    order = rng.permutation(len(xs))
    return xs[order], ks[order]


def verify_symbol_bounds(nu, region, samples, rng) -> SymbolBoundReport:
    """Measure the smallest constants C making the printed envelopes hold.

    Draws ``samples`` modes from the region (plus a doubled batch for the
    stability check), evaluates |l1|, |l2|, |dt l1|, |dt l2| at 26
    log-spaced times in [1e-2, 1e3] and maximizes quantity/envelope.  An
    empty region (possible for larger nu) is a distinct outcome, not a
    failure.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")

    def measure(n):
        xi, k = sample_region_modes(nu, region, n, rng)
        if len(xi) == 0:
            return None, 0
        p, sigma, lam_p, lam_m = sigma_lambda(xi, k, nu)
        t = np.logspace(-2, 3, 26)[:, None]
        l1, l2 = pair_values(nu * p, sigma, t, lam=(lam_p, lam_m))
        d1, d2 = pair_derivatives(nu * p, t, (lam_p, lam_m), (l1, l2))
        worst = {}
        for q, v in (("l1", l1), ("l2", l2), ("dt_l1", d1), ("dt_l2", d2)):
            env = _envelope(region, q, xi, p, nu, t)
            # below ~1e-250 value and envelope are denormal dust and the
            # ratio is pure quantization noise; skip those (time, mode) cells
            live = env >= 1e-250
            worst[q] = float((np.abs(v[live]) / env[live]).max(initial=0.0))
        return worst, len(xi)

    constants, found = measure(samples)
    if constants is None:
        return SymbolBoundReport(nu=nu, region=region, requested=samples,
                                 found=0, empty=True)
    constants_doubled, found2 = measure(2 * samples)
    return SymbolBoundReport(
        nu=nu,
        region=region,
        requested=samples,
        found=found + found2,
        empty=False,
        constants=constants,
        constants_doubled=constants_doubled,
    )


# ---------------------------------------------------------------------------
# kernel-decay integral
# ---------------------------------------------------------------------------

def _gauss_panels(edges, n):
    x, w = np.polynomial.legendre.leggauss(n)
    a, b = (np.asarray(e, dtype=float)[:, None] for e in (edges[:-1], edges[1:]))
    half = 0.5 * (b - a)
    return (half * x + 0.5 * (a + b)).ravel(), (half * w).ravel()


def _beta_panels(tau_max):
    """Quadrature for g(tau) = int_0^{pi/2} e^{-tau sin^2(2b)/4} cos^2 b db.

    The integrand peaks at both endpoints with width ~1/sqrt(tau); panel
    edges refine geometrically toward 0 and pi/2 until the innermost panel
    sits well inside the sharpest peak.
    """
    quarter = math.pi / 4.0
    floor = min(1e-5, 0.03 / max(math.sqrt(tau_max), 1.0)) * quarter
    offsets = [quarter]
    while offsets[-1] > floor:
        offsets.append(offsets[-1] / 2.0)
    offsets.append(0.0)
    left = [o for o in sorted(offsets)]
    edges = left + [math.pi / 2.0 - o for o in sorted(offsets, reverse=True)[1:]]
    return _gauss_panels(edges, 24)


def kernel_decay_integral(t):
    """K(t) = int_pi^inf int_R e^{-xi^2 t/(xi^2+eta^2)^2} (xi^2+eta^2)^{-2}.

    The xi-integral reduces by xi = eta u, u = tan(beta) to
    2 eta^{-3} g(t/eta^2); eta is truncated at H with the analytic tail
    bound pi/(4 H^2) kept below 1e-8 times the integral (H grows like
    t^{1/4} because K itself decays like t^{-1/2}).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    H = max(4.0e4, 2.0e4 * (max(t, 1.0)) ** 0.25)
    n_panels = int(math.ceil(math.log2(H / math.pi)))
    edges = [math.pi * 2.0**i for i in range(n_panels)] + [H]
    eta, w_eta = _gauss_panels(edges, 32)

    beta, w_beta = _beta_panels(t / math.pi**2)
    tau = t / eta**2
    phase = np.sin(2.0 * beta) ** 2 / 4.0
    g = np.exp(-np.outer(tau, phase)) @ (w_beta * np.cos(beta) ** 2)
    value = float(np.sum(w_eta * 2.0 / eta**3 * g))

    tail = math.pi / (4.0 * H * H)
    if tail > 1e-8 * value:
        raise RuntimeError(
            f"eta-truncation tail {tail:.2e} above 1e-8 of K={value:.3e}"
        )
    return value


def kernel_decay_integral_polar(t):
    """Independent polar-coordinate evaluation of the same integral.

    In polar coordinates the radial integral is closed-form:
    K(t) = (1/2) int_0^pi (1 - e^{-t s(b)}) / (t cos^2 b) db with
    s(b) = sin^2 b cos^2 b / pi^2, the cos^2 b -> 0 limit filled by its
    continuous value sin^2 b / pi^2.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return 1.0 / (4.0 * math.pi)
    # integrand peaks at b = pi/2 where a = t cos^2 b -> 0
    quarter = math.pi / 4.0
    offsets = [quarter]
    while offsets[-1] > 1e-7 * quarter / max(1.0, math.sqrt(t)):
        offsets.append(offsets[-1] / 2.0)
    offsets.append(0.0)
    up = sorted(math.pi / 2.0 - o for o in offsets)
    down = sorted(math.pi / 2.0 + o for o in offsets)[1:]
    edges = [0.0, math.pi / 4.0] + up + down + [3 * math.pi / 4.0, math.pi]
    edges = sorted(set(edges))
    b, w = _gauss_panels(np.array(edges), 24)

    s = (np.sin(b) * np.cos(b)) ** 2 / math.pi**2
    x = t * s
    tiny = x < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        f = -np.expm1(-x) / (t * np.cos(b) ** 2)
    f = np.where(tiny, np.sin(b) ** 2 / math.pi**2, f)
    return float(0.5 * np.sum(w * f))


# ---------------------------------------------------------------------------
# continuum decay curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Continuum xi-quadrature on [0, 8]: Gauss-Legendre nodes per panel."""

    xi_points: int = 64

    def __post_init__(self):
        if self.xi_points < 8:
            raise ValueError("xi_points must be >= 8")

    def nodes(self):
        """Positive-axis nodes and weights (integrands here are even in xi)."""
        edges = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0]
        return _gauss_panels(edges, self.xi_points)


def continuum_linear_decay(profile: InitialProfile, nu, norms, times,
                           quad: QuadratureSpec | None = None):
    """Norm-versus-time curves for the exact linear pair on continuum xi.

    Args:
        profile: initial data; finitely many sine rows, smooth xi-envelopes
        nu: viscosity
        norms: list of (field_name, NormId) with field_name in
            {"theta", "omega"}; sobolev/l2hat/l1hat kinds only
        times: strictly increasing positive times
        quad: xi-quadrature control (defaults reach convergence ~1e-10)

    Returns:
        list of DecayCurve labelled ``<field>_<norm label>``.

    Raises:
        ValueError: a profile component with k = 0, or a linf norm request
            (no collocation grid exists on the continuum).
    """
    if quad is None:
        quad = QuadratureSpec()
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise ValueError("times must be positive and strictly increasing")
    for _, nid in norms:
        if nid.kind == "linf":
            raise ValueError("linf is grid-based; use the l1hat surrogate here")

    xi, w_xi = quad.nodes()
    k_rows = sorted({c.k for c in profile.theta} | {c.k for c in profile.omega})
    theta0 = {k: np.zeros_like(xi) for k in k_rows}
    omega0 = {k: np.zeros_like(xi) for k in k_rows}
    for c in profile.theta:
        theta0[c.k] = theta0[c.k] + c.envelope(xi)
    for c in profile.omega:
        omega0[c.k] = omega0[c.k] + c.envelope(xi)

    acc = {i: np.zeros(len(times)) for i in range(len(norms))}
    for k in k_rows:
        p, sigma, lam_p, lam_m = sigma_lambda(xi, k, nu)
        kpi = math.pi * k
        weights = [norm_weight(nid, xi, kpi) for _, nid in norms]
        for it, t in enumerate(times):
            m = pair_exponential(xi, p, sigma, (lam_p, lam_m), nu, t)
            om, th = (np.abs(v) for v in apply_pair(m, omega0[k], theta0[k]))
            for i, (field_name, nid) in enumerate(norms):
                v = th if field_name == "theta" else om
                wv = weights[i] * v
                if nid.kind == "l1hat":
                    acc[i][it] += 2.0 * float(np.sum(w_xi * wv))
                else:
                    acc[i][it] += 2.0 * float(np.sum(w_xi * wv**2))

    curves = []
    for i, (field_name, nid) in enumerate(norms):
        vals = acc[i] if nid.kind == "l1hat" else np.sqrt(acc[i])
        curves.append(DecayCurve(times, vals, f"{field_name}_{nid.label}"))
    return curves


#: Continuum version of the theorem ladder: (field, NormId, expected exponent).
CONTINUUM_LADDER = (
    ("theta", NormId.sobolev(4), -0.25),
    ("omega", NormId.sobolev(2), -0.75),
    ("omega", NormId.l2hat(), -0.75),
    ("theta", NormId.l1hat(), -0.5),
    ("theta", NormId.l1hat(weight="kpi"), -0.5),
    ("theta", NormId.l1hat(weight="xi"), -1.0),
    ("omega", NormId.l1hat(), -1.0),
    ("omega", NormId.l2hat(weight="xi"), -1.25),
    ("theta", NormId.l2hat(weight="xi2"), -1.25),
)


def truncation_honesty_tmax(grid):
    """Largest time before x-truncation masks the algebraic continuum decay.

    With smallest nonzero frequency xi_min = pi/Lx the slowest lattice mode
    decays exponentially at a rate ~ xi_min^2/nu; runs are trusted for
    t <= 0.1 nu (Lx/pi)^2.
    """
    return 0.1 * grid.nu * (grid.half_width_lx / math.pi) ** 2
