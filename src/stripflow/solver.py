"""Pseudo-spectral time integration of the full perturbation system.

The state (omega, theta) evolves by

    d/dt omega = nu Lap omega - u . grad omega + d/dx theta
    d/dt theta = -u . grad theta - u2
    u = (d/dy (-Lap)^{-1} omega, -d/dx (-Lap)^{-1} omega)

with slip walls enforced by sine parity.  Time stepping is Strang
splitting: a half step of the exact linear pair propagator, an explicit
midpoint-rule substep of the pure transport terms, and a second linear
half step.  The linear part is exact per mode, so the scheme has no
stiffness restriction; only the advective CFL bound limits dt.  Transport
products are formed pointwise on the shared collocation grid and
dealiased by the 2/3 rule in both directions.  The rule and the CFL
safety factor are constants of the method, not settings.

The two velocity components, and the omega and theta halves of the
transport term, are independent: each pair runs as two lanes, one on the
calling thread and one on a helper thread that every caller shares.
numpy's ufuncs and scipy.fft release the GIL, so the lanes overlap on two
CPUs; on one they run inline, in order.  Either way each lane does the
same arithmetic, so results do not depend on it.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diagnostics import NormId, norm
from .errors import CflViolation, NumericalBlowup
from .fields import (
    FlowState,
    InitialProfile,
    Parity,
    PhysicalField,
    SpectralField,
    StripGrid,
    scratch,
    xi_index,
    xi_values,
)
from .operators import derivative_x, derivative_y, velocity_from_vorticity
from .propagators import apply_pair, pair_step_matrix
from .transforms import quadrature_l1, to_physical, to_spectral


#: fraction of the advective bound min(dx/|u1|, dy/|u2|) a step may take
CFL_SAFETY = 0.8

#: 2/3 rule: the kept share of each direction's modes after a product
DEALIAS_FRACTION = 2.0 / 3.0


@dataclass(frozen=True)
class StepperConfig:
    """The Strang step dt; the scheme, CFL_SAFETY and DEALIAS_FRACTION are
    constants of the method."""

    dt: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be > 0")


@lru_cache(maxsize=16)
def dealias_mask(grid: StripGrid):
    """Keep-mask on the Odd lattice, 1 where j <= f nx/2 and k <= f ny, else 0.

    Complex, so ``coeff *= mask`` needs no lattice-sized cast buffer; its
    1+0j and 0 are the values numpy would cast a boolean mask to.
    """
    f = DEALIAS_FRACTION
    j = xi_index(grid)[:, None]
    k = np.arange(1, grid.ny + 1)[None, :]
    mask = ((j <= f * grid.nx / 2.0) & (k <= f * grid.ny)).astype(complex)
    mask.setflags(write=False)
    return mask


def _spectral(grid, name, parity):
    return scratch(grid, ("solver", name), lambda: SpectralField.zeros(grid, parity))


def _physical(grid, name, parity):
    return scratch(grid, ("solver", name),
                   lambda: PhysicalField(grid, parity, np.zeros((grid.nx, grid.ny + 1))))


class _Helper:
    """The helper thread, started on first use, and the queue of lanes it
    runs one after another.

    A lane costs one lock and one list.  A concurrent.futures Future
    costs about 2.6 KB of heap, which on a 64x8 grid is a third of a
    lattice: enough to take a step past the allocation bound its test
    sets.
    """

    def __init__(self):
        self._tasks = queue.SimpleQueue()
        self._start = threading.Lock()
        self._thread = None

    def submit(self, g):
        """Queue g.  Returns (done, box): ``done`` is a held lock, released
        once ``box`` holds (True, g's result) or (False, g's exception)."""
        with self._start:
            if self._thread is None:
                self._thread = threading.Thread(target=self._serve, name="stripflow-lane",
                                                daemon=True)
                self._thread.start()
        done = threading.Lock()
        done.acquire()
        box = []
        self._tasks.put((g, box, done))
        return done, box

    def _serve(self):
        while True:
            g, box, done = self._tasks.get()
            try:
                box.append((True, g()))
            except BaseException as exc:  # raised again on the caller's thread
                box.append((False, exc))
            done.release()


def _new_helper():
    # a forked child must not keep the parent's: its thread does not exist
    # in the child, so queued lanes would never run
    global _helper
    _helper = _Helper()


_new_helper()
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_new_helper)


def _usable_cpus():
    """CPUs this process may run on; all of them where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _both(f, g):
    """(f(), g()), with g run on the helper thread while f runs here.

    g's exception is raised here with its own type.  g has finished
    whenever this returns or raises, so no helper work outlives the call.
    With one usable CPU both run inline, in order.  Lanes of several
    callers run one after another on the helper; a lane never calls
    _both, so the helper never waits for itself.
    """
    if _usable_cpus() == 1:
        return f(), g()
    done, box = _helper.submit(g)
    try:
        a = f()
    finally:
        done.acquire()
    ok, b = box[0]
    if not ok:
        raise b
    return a, b


def _velocity_nodes(omega, finish=lambda u: u):
    """finish(u) of (u1, u2) at the collocation nodes; u2's lane is the helper's.

    The nodes live in the calling thread's scratch, so the lanes that
    follow can read them from either thread.
    """
    grid = omega.grid
    u1, u2 = velocity_from_vorticity(
        omega, out=(_spectral(grid, "even", Parity.EVEN), _spectral(grid, "odd", Parity.ODD)))
    p1, p2 = _physical(grid, "u1", Parity.EVEN), _physical(grid, "u2", Parity.ODD)
    return _both(lambda: finish(to_physical(u1, out=p1)),
                 lambda: finish(to_physical(u2, out=p2)))


def nonlinear_term(state: FlowState, out=None):
    """Transport terms (u.grad omega, u.grad theta), dealiased, Odd parity.

    Factors are moved to the shared collocation nodes, multiplied
    pointwise and transformed back; the product of an Even and an Odd
    factor has an odd extension, so the outputs are sine fields with
    exactly zero wall rows.  omega's term is formed on the calling
    thread and theta's on the helper (see _both), each with its
    derivatives and products in its own thread's scratch for the grid;
    both read the velocity nodes in the caller's.

    ``out``, a pair of Odd fields on the state's grid, receives the two
    terms and is returned; by default a new pair does.  It may be
    (state.omega, state.theta): each term reads only its own field, in
    full, before writing it.

    Raises:
        ParityError: a product failed the wall-row check in to_spectral
            (signals a parity bug upstream).
    """
    grid = state.grid
    u1_g, u2_g = (u.values for u in _velocity_nodes(state.omega))
    mask = dealias_mask(grid)

    def term(f, dest):
        # on the caller, velocity_from_vorticity's buffers are free again
        # once u is at the nodes
        d_odd = _spectral(grid, "odd", Parity.ODD)
        d_even = _spectral(grid, "even", Parity.EVEN)
        fx = _physical(grid, "fx", Parity.ODD)
        fy = _physical(grid, "fy", Parity.EVEN)
        fx_g = to_physical(derivative_x(f, out=d_odd), out=fx).values
        fy_g = to_physical(derivative_y(f, out=d_even), out=fy).values
        # the Odd product u1 fx + u2 fy, formed in fx's buffer
        np.multiply(u1_g, fx_g, out=fx_g)
        np.multiply(u2_g, fy_g, out=fy_g)
        fx_g += fy_g
        spec = to_spectral(fx, out=dest)
        spec.coeff *= mask
        return spec

    n_w, n_th = out or (None, None)
    return _both(lambda: term(state.omega, n_w), lambda: term(state.theta, n_th))


def admissible_dt(state: FlowState, cfg: StepperConfig) -> float:
    """Advective stability bound CFL_SAFETY * min over directions of dx/|u|.

    Each velocity lane reduces its own max |u| (see _velocity_nodes).
    """
    grid = state.grid
    m1, m2 = _velocity_nodes(state.omega,
                             lambda u: float(np.abs(u.values, out=u.values).max()))
    bound = math.inf
    if m1 > 0:
        bound = grid.dx / m1
    if m2 > 0:
        bound = min(bound, grid.dy / m2)
    return CFL_SAFETY * bound


def _check_finite(state):
    for name, f in (("omega", state.omega), ("theta", state.theta)):
        bad = ~np.isfinite(f.coeff)
        if bad.any():
            j, col = np.argwhere(bad)[0]
            raise NumericalBlowup(name, (int(j), int(col) + 1), state.t)


def step(state: FlowState, cfg: StepperConfig) -> FlowState:
    """One Strang step: exact linear half, explicit transport, linear half.

    The CFL check and both transport stages run two lanes at once, one on
    the helper thread (see _both); with one usable CPU they run inline.
    Either way the step's arithmetic, and so its result, is the same.

    The two fields of the returned state are the only new lattices: every
    other buffer of the step lives in the scratch for the grid of the
    calling thread, or of the helper thread for the lanes that run there
    (scipy.fft still allocates each transform's output).  So a returned
    state is never written again, and trajectories interleaved on one
    grid or run from several threads do not share memory: the helper runs
    one caller's lane at a time, and no lane keeps a helper buffer past
    its task.

    Raises:
        CflViolation: cfg.dt above the admissible advective step; the
            exception carries the admissible value.
        NumericalBlowup: non-finite coefficients after the step.
    """
    dt_adm = admissible_dt(state, cfg)
    if cfg.dt > dt_adm:
        raise CflViolation(cfg.dt, dt_adm)

    grid = state.grid
    dt = cfg.dt
    m = pair_step_matrix(grid, 0.5 * dt)
    w, th, n_w, n_th = (_spectral(grid, name, Parity.ODD)
                        for name in ("step.omega", "step.theta", "step.n_omega", "step.n_theta"))
    apply_pair(m, state.omega.coeff, state.theta.coeff, out=(w.coeff, th.coeff),
               tmp=n_w.coeff)

    # explicit midpoint rule for d/dt (w, th) = -N(w, th); the midpoint
    # stage w - (dt/2) N(w) is formed in N's buffers
    n = (n_w, n_th)
    nonlinear_term(FlowState(state.t, w, th), out=n)
    for f, nf in zip((w, th), n):
        nf.coeff *= 0.5 * dt
        np.subtract(f.coeff, nf.coeff, out=nf.coeff)
    nonlinear_term(FlowState(state.t, n_w, n_th), out=n)
    for f, nf in zip((w, th), n):
        nf.coeff *= dt
        f.coeff -= nf.coeff

    w_new, th_new = apply_pair(m, w.coeff, th.coeff, tmp=n_w.coeff)
    out = FlowState(
        state.t + dt,
        SpectralField(grid, Parity.ODD, w_new),
        SpectralField(grid, Parity.ODD, th_new),
    )
    _check_finite(out)
    return out


def trajectory(state0: FlowState, cfg: StepperConfig, sample_times):
    """Yield the state at the step boundary nearest each sample time.

    Each sample time is rounded to the nearest step boundary at or after
    state0.t, and samples that round to the same boundary yield once; a
    snapshot's t is the exact boundary time.  The stream steps only as far
    as the next sample and ends after the last, holding one state at a
    time, so memory is set by the grid, not by how many samples are asked
    for.  A step failure raises out of the stream; snapshots yielded
    before it stay with the caller.

    Raises:
        ValueError: sample_times not strictly increasing (before any step).
        CflViolation, NumericalBlowup: from ``step``.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    if np.any(np.diff(sample_times) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    # non-decreasing, so samples that share a boundary are neighbours
    targets = (max(int(round((ts - state0.t) / cfg.dt)), 0) for ts in sample_times)
    state, taken = state0, 0
    for target, _ in itertools.groupby(targets):
        while taken < target:
            state = step(state, cfg)
            taken += 1
        # the caller's own state0 is not handed back
        yield state.copy() if taken == 0 else state


def make_initial_data(profile: InitialProfile, grid: StripGrid):
    """Synthesize Odd-parity initial data from sine-row components.

    Every even-order wall derivative of a finite sine series vanishes
    identically, so the compatibility conditions hold by construction.

    Returns:
        (state, report): FlowState at t=0 plus a report dict with the
        grid-quadrature W^{m,1} surrogates (m=8 for theta, m=5 for omega)
        and L2 norms used in small-data bookkeeping.
    """
    xi = xi_values(grid)

    def synthesize(components):
        coeff = np.zeros(grid.coeff_shape(Parity.ODD), dtype=np.complex128)
        for c in components:
            if c.k > grid.ny:
                raise ValueError(f"component k={c.k} exceeds ny={grid.ny}")
            coeff[:, c.k - 1] += c.envelope(xi)
        return SpectralField(grid, Parity.ODD, coeff)

    theta = synthesize(profile.theta)
    omega = synthesize(profile.omega)
    state = FlowState(0.0, omega, theta)

    report = {
        "theta0_w81_surrogate": _wm1_surrogate(theta, 8),
        "omega0_w51_surrogate": _wm1_surrogate(omega, 5),
        "theta0_l2": norm(theta, NormId.l2hat()),
        "omega0_l2": norm(omega, NormId.l2hat()),
    }
    return state, report


def _wm1_surrogate(f, m):
    """Sum of grid-quadrature L1 norms of all derivatives up to order m."""
    total = 0.0
    fx = f
    for a in range(m + 1):
        fy = fx
        for b in range(m + 1 - a):
            total += quadrature_l1(to_physical(fy))
            fy = derivative_y(fy)
        fx = derivative_x(fx)
    return total
