"""Norms, decay-rate fitting and energy-identity bookkeeping.

Spectral norms use the uniform quadrature weight dxi = pi/Lx of the
coefficient convention (see fields module), summed over the full spectrum
(the stored columns weighted by fields.column_multiplicity):

    l2hat(f) = sqrt( sum |w(xi,k) coeff|^2 dxi )
    l1hat(f) = sum |w(xi,k) coeff| dxi

with the multiplier w drawn from {1, xi, xi^2, k pi, xi k pi} or the
Sobolev weight (1 + xi^2 + pi^2 k^2)^{m/2}.  l1hat of a field dominates its
sup norm, so it serves as the L-infinity surrogate in the decay ladder.

The hat-norms, the energy report and the ladder reduce only the span of
sine rows the data occupy (fields.occupied_rows, NaN and inf counting as
occupied), so their cost scales with that span rather than the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, WindowTooShort
from .fields import (
    Parity,
    SpectralField,
    column_multiplicity,
    laplace_symbol,
    occupied_rows,
    xi_values,
    y_wavenumbers,
)
from .transforms import physical_max

#: seminorm multiplier of a hat-norm, as a function of (xi, k pi); each is
#: nonnegative, so the reductions may weight |coeff| instead of coeff
SEMINORM_WEIGHTS = {
    "1": lambda xi, kpi: 1.0,
    "xi": lambda xi, kpi: np.abs(xi),
    "xi2": lambda xi, kpi: xi**2,
    "kpi": lambda xi, kpi: kpi,
    "xi_kpi": lambda xi, kpi: np.abs(xi) * kpi,
}


@dataclass(frozen=True)
class NormId:
    """Identifier of a norm: kind in {l2hat, l1hat, sobolev_hm, linf}.

    ``weight`` applies a frequency multiplier to the hat-norms (seminorms
    such as the d/dx surrogate ``xi``); ``m`` is the Sobolev order.
    """

    kind: str
    m: int = 0
    weight: str = "1"

    def __post_init__(self):
        if self.kind not in ("l2hat", "l1hat", "sobolev_hm", "linf"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.weight not in SEMINORM_WEIGHTS:
            raise ValueError(f"unknown weight {self.weight!r}")
        if self.m < 0:
            raise ValueError("Sobolev order m must be >= 0")

    @classmethod
    def l2hat(cls, weight="1"):
        return cls("l2hat", weight=weight)

    @classmethod
    def l1hat(cls, weight="1"):
        return cls("l1hat", weight=weight)

    @classmethod
    def sobolev(cls, m, weight="1"):
        return cls("sobolev_hm", m=m, weight=weight)

    @classmethod
    def linf(cls):
        return cls("linf")

    @property
    def label(self):
        base = f"h{self.m}" if self.kind == "sobolev_hm" else self.kind
        return base if self.weight == "1" else f"{base}_{self.weight}"


def norm_weight(nid, xi, kpi):
    """Multiplier w(xi, k pi) of a hat-norm on broadcastable arrays: the
    seminorm weight, times (1 + xi^2 + (k pi)^2)^(m/2) for H^m."""
    shape = np.broadcast(xi, kpi).shape
    w = SEMINORM_WEIGHTS[nid.weight](xi, kpi) * np.ones(shape)
    if nid.kind == "sobolev_hm":
        w = w * (1.0 + xi**2 + kpi**2) ** (nid.m / 2.0)
    return w


def _lattice_weight(grid, parity, nid):
    xi = xi_values(grid)[:, None]
    kpi = math.pi * y_wavenumbers(grid, parity)[None, :]
    return norm_weight(nid, xi, kpi)


def _occupied_modulus(coeff):
    """The span of sine rows coeff occupies, and |coeff| on that span."""
    rows = occupied_rows(coeff)
    return rows, np.abs(coeff[:, rows])


def _spectrum_sum(grid, terms):
    """dxi times the sum over the full spectrum of real ``terms`` given on
    the stored columns (leading axis j = 0..nx/2-1)."""
    return float(np.sum(column_multiplicity(grid) * terms)) * grid.dxi


def _lattice_norm(w, rows, modulus, nid, grid):
    """Reduction of the weight w >= 0 times |coeff| (from _occupied_modulus):
    l1 sum or l2 root-sum-square over the full spectrum, times dxi."""
    weighted = w[:, rows] * modulus
    if nid.kind == "l1hat":
        return _spectrum_sum(grid, weighted)
    return math.sqrt(_spectrum_sum(grid, weighted**2))


def norm(f: SpectralField, nid: NormId) -> float:
    """Evaluate one norm of a spectral field.

    The hat-norms reduce only the span of sine rows the field occupies.
    linf is the max of |f| on a 2x-refined collocation grid (the collocation
    max alone underestimates the true sup for band-limited fields).
    """
    if nid.kind == "linf":
        return physical_max(f)
    w = _lattice_weight(f.grid, f.parity, nid)
    return _lattice_norm(w, *_occupied_modulus(f.coeff), nid, f.grid)


def l2_inner(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product of two same-parity real fields, evaluated spectrally."""
    if f.grid != g.grid:
        raise GridMismatchError("inner product across grids")
    if f.parity is not g.parity:
        raise ValueError("inner product requires matching parity")
    return _spectrum_sum(f.grid, (f.coeff * np.conj(g.coeff)).real)


def grad_inner(f: SpectralField, g: SpectralField) -> float:
    """<grad f, grad g>; diagonal with weight p = xi^2 + pi^2 k^2."""
    if f.grid != g.grid:
        raise GridMismatchError("inner product across grids")
    p = laplace_symbol(f.grid, f.parity)
    return _spectrum_sum(f.grid, (p * f.coeff * np.conj(g.coeff)).real)


@dataclass
class DecayCurve:
    """A norm sampled against time."""

    times: np.ndarray
    values: np.ndarray
    label: str

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if len(self.times) and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")


@dataclass(frozen=True)
class RateFit:
    """Algebraic decay exponent fitted on log-log axes."""

    exponent: float
    intercept: float
    r_squared: float
    window: tuple

    def as_dict(self):
        return {
            "exponent": self.exponent,
            "intercept": self.intercept,
            "r2": self.r_squared,
            "t_min": self.window[0],
            "t_max": self.window[1],
        }


def fit_rate(curve: DecayCurve, window) -> RateFit:
    """Least-squares line through (log t, log value) inside the window.

    The slope regresses the log-ratio to the first sample in the window,
    which makes the exponent bit-identical under exact rescaling of the
    values (the intercept absorbs the scale).

    Raises:
        ValueError: fewer than 8 samples in the window, or non-positive
            values (underflow or a zero field).
    """
    t_min, t_max = window
    if not t_min < t_max:
        raise ValueError("window must satisfy t_min < t_max")
    mask = (curve.times >= t_min) & (curve.times <= t_max)
    if int(mask.sum()) < 8:
        raise ValueError(
            f"need >= 8 samples in window [{t_min:g}, {t_max:g}], "
            f"have {int(mask.sum())}"
        )
    ts = curve.times[mask]
    vs = curve.values[mask]
    if np.any(vs <= 0):
        raise ValueError("non-positive values in fit window")

    x = np.log(ts)
    d = np.log(vs / vs[0])
    xc = x - x.mean()
    slope = float(np.sum(xc * (d - d.mean())) / np.sum(xc * xc))

    y = np.log(vs)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(slope, intercept, r2, (float(t_min), float(t_max)))


@dataclass
class EnergyReport:
    """Energy-identity bookkeeping along a trajectory.

    E(t) = |grad theta|^2 + |omega|^2 obeys
    dE/dt = -2 nu |grad omega|^2 + 2 (B1 + B2), with B3 = 0 exactly.
    Integrals over the snapshot window use composite trapezoid.
    """

    times: np.ndarray
    energy: np.ndarray
    grad_omega_sq: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    b3: np.ndarray
    delta_energy: float
    dissipation: float
    flux: float
    nu: float

    @property
    def residual_linear(self):
        """|dE + dissipation| relative to the balance scale (no-flux form)."""
        scale = max(abs(self.delta_energy), self.dissipation, 1e-300)
        return abs(self.delta_energy + self.dissipation) / scale

    @property
    def residual_full(self):
        """|dE + dissipation - flux| relative to the balance scale."""
        scale = max(abs(self.delta_energy), self.dissipation, 1e-300)
        return abs(self.delta_energy + self.dissipation - self.flux) / scale

    def thinned(self, stride):
        """The report of every ``stride``-th snapshot, from the stored terms.

        Equal to energy_report on those snapshots, without evaluating them
        again.  ``stride`` must divide the number of intervals, so the
        thinned report covers the same time span.
        """
        if (len(self.times) - 1) % stride != 0:
            raise ValueError(
                f"stride {stride} does not divide {len(self.times) - 1} intervals"
            )
        return _energy_balance(
            self.times[::stride], self.energy[::stride], self.grad_omega_sq[::stride],
            self.b1[::stride], self.b2[::stride], self.b3[::stride], self.nu,
        )


def _energy_balance(times, energy, grad_omega_sq, b1, b2, b3, nu):
    """Trapezoid dissipation and flux integrals over uniform snapshots."""
    if len(times) < 3:
        raise ValueError("need at least 3 snapshots")
    h = np.diff(times)
    if np.any(h <= 0) or np.abs(h - h[0]).max() > 1e-9 * h[0]:
        raise ValueError("snapshots must be uniformly spaced in time")
    w = np.full(len(times), h[0])
    w[0] = w[-1] = 0.5 * h[0]
    dissipation = 2.0 * nu * float(np.sum(w * grad_omega_sq))
    flux = 2.0 * float(np.sum(w * (b1 + b2)))
    return EnergyReport(
        times=times,
        energy=energy,
        grad_omega_sq=grad_omega_sq,
        b1=b1,
        b2=b2,
        b3=b3,
        delta_energy=float(energy[-1] - energy[0]),
        dissipation=dissipation,
        flux=flux,
        nu=nu,
    )


def energy_report(traj, nu, nonlinear_terms=None) -> EnergyReport:
    """Energy, dissipation, transport flux and the exact-cancellation term B3.

    Args:
        traj: iterable of FlowState snapshots, uniformly spaced in time;
            each snapshot is read once, so a generator keeps memory at a
            few lattices however long the trajectory
        nu: viscosity used in the dissipation integral
        nonlinear_terms: optional callable state -> (N_omega, N_theta)
            matching the solver's discretization; when omitted the flux
            terms are reported as zero (exact for linear trajectories).

    Raises:
        ValueError: fewer than 3 snapshots or non-uniform spacing.
        GridMismatchError: snapshots on different grids.
    """
    times, energy, grad_omega_sq, b1, b2, b3 = [], [], [], [], [], []
    grid = None
    for s in traj:
        if grid is None:
            grid = s.grid
            lap = laplace_symbol(grid, Parity.ODD)
            x = xi_values(grid)[:, None]
        elif s.grid != grid:
            raise GridMismatchError("snapshots on different grids")
        rows = occupied_rows(s.omega.coeff, s.theta.coeff)
        p = lap[:, rows]
        om, th = s.omega.coeff[:, rows], s.theta.coeff[:, rows]
        th_sq = th.real**2 + th.imag**2
        om_sq = om.real**2 + om.imag**2
        times.append(s.t)
        energy.append(_spectrum_sum(grid, p * th_sq) + _spectrum_sum(grid, om_sq))
        grad_omega_sq.append(_spectrum_sum(grid, p * om_sq))
        # B3 = <grad d/dx (-Lap)^{-1} omega, grad theta> + <d/dx theta, omega>
        #    = sum p xi Im(theta conj(psi)) + sum xi Im(omega conj(theta)) with
        # psi = omega / p; the two terms cancel only through that division
        term1 = p * x * ((om.real / p) * th.imag - (om.imag / p) * th.real)
        term2 = x * (th.real * om.imag - th.imag * om.real)
        b3.append(_spectrum_sum(grid, term1 + term2))
        if nonlinear_terms is not None:
            n_omega, n_theta = nonlinear_terms(s)
            b1.append(-l2_inner(n_omega, s.omega))
            b2.append(-grad_inner(n_theta, s.theta))

    if nonlinear_terms is None:
        b1 = b2 = [0.0] * len(times)
    return _energy_balance(
        np.array(times), np.array(energy), np.array(grad_omega_sq),
        np.array(b1), np.array(b2), np.array(b3), nu,
    )


#: The decay ladder asserted by the main stability theorem, as
#: (label, norm of which field, expected exponent).  The sup norms are
#: measured through their summable-coefficient surrogate l1hat.
THEOREM_LADDER = (
    ("theta_h4", "theta", NormId.sobolev(4), -0.25),
    ("omega_h2", "omega", NormId.sobolev(2), -0.75),
    ("dx_theta_h2", "theta", NormId.sobolev(2, weight="xi"), -0.75),
    ("dx_omega_l2", "omega", NormId.l2hat(weight="xi"), -1.25),
    ("dxx_theta_l2", "theta", NormId.l2hat(weight="xi2"), -1.25),
    ("theta_linf_surrogate", "theta", NormId.l1hat(), -0.5),
    ("dy_theta_linf_surrogate", "theta", NormId.l1hat(weight="kpi"), -0.5),
    ("dx_theta_linf_surrogate", "theta", NormId.l1hat(weight="xi"), -1.0),
    ("omega_linf_surrogate", "omega", NormId.l1hat(), -1.0),
)


def _require_decade(window):
    t_min, t_max = window
    if not t_max >= 10.0 * t_min:
        raise WindowTooShort(10.0, t_max / t_min if t_min > 0 else math.inf)


def theorem_suite(traj, window=None):
    """Ladder norms along a trajectory with a rate fit per curve.

    Args:
        traj: iterable of FlowState snapshots (increasing t); each snapshot
            is read once, so a generator keeps memory at a few lattices
            however many times are sampled
        window: (t_min, t_max) fit window; defaults to the span of the
            snapshots at t > 0

    Returns:
        list of (DecayCurve, RateFit, expected_exponent) triples.

    Raises:
        ValueError: no window given and no snapshot at t > 0.
        GridMismatchError: snapshots on different grids.
        WindowTooShort: the window spans less than a decade in t; a given
            window is checked before any snapshot is read.
    """
    if window is not None:
        _require_decade(window)
    times = []
    values = [[] for _ in THEOREM_LADDER]
    grid = None
    for s in traj:
        if grid is None:
            grid = s.grid
            weights = [_lattice_weight(grid, Parity.ODD, nid)
                       for _, _, nid, _ in THEOREM_LADDER]
        elif s.grid != grid:
            raise GridMismatchError("snapshots on different grids")
        times.append(s.t)
        # one span and one |coeff| per field and snapshot, shared by the rows
        moduli = {"omega": _occupied_modulus(s.omega.coeff),
                  "theta": _occupied_modulus(s.theta.coeff)}
        for (_, which, nid, _), w, vals in zip(THEOREM_LADDER, weights, values):
            vals.append(_lattice_norm(w, *moduli[which], nid, grid))
    times = np.array(times)
    if window is None:
        positive = times[times > 0]
        if positive.size == 0:
            raise ValueError("the default window needs a snapshot at t > 0")
        window = (float(positive.min()), float(times.max()))
        _require_decade(window)
    results = []
    for (label, _, _, expected), vals in zip(THEOREM_LADDER, values):
        curve = DecayCurve(times, vals, label)
        results.append((curve, fit_rate(curve, window), expected))
    return results
