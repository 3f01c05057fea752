"""Nonlinear solver: transport terms, stepping, trajectories, initial data."""

import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from stripflow import solver
from stripflow.errors import CflViolation, NumericalBlowup, ParityError
from stripflow.fields import (
    FlowState,
    InitialProfile,
    Parity,
    ProfileComponent,
    SpectralField,
    StripGrid,
    random_field,
    xi_index,
)
from stripflow.diagnostics import l2_inner, theorem_suite
from stripflow.operators import derivative_x, derivative_y, velocity_from_vorticity
from stripflow.propagators import apply_pair, pair_step_matrix, propagate_linear_pair
from stripflow.solver import (
    StepperConfig,
    admissible_dt,
    dealias_mask,
    make_initial_data,
    nonlinear_term,
    step,
)
from stripflow.snapshots import load_state, save_state
from stripflow.transforms import to_physical

from conftest import direct_projection, direct_synthesis


def band_limited_state(grid, rng, amplitude=1.0, fraction=2.0 / 3.0):
    """Random state inside the dealias band (discrete cancellations exact)."""
    jmax = int(fraction * grid.nx / 2.0) - 1
    kmax = int(fraction * grid.ny) - 1
    omega = random_field(grid, Parity.ODD, rng, amplitude, kmax=kmax, jmax=jmax)
    theta = random_field(grid, Parity.ODD, rng, amplitude, kmax=kmax, jmax=jmax)
    return FlowState(0.0, omega, theta)


class TestNonlinearTerm:
    def test_zero_state_gives_zero_terms(self, medium_grid):
        state = FlowState(
            0.0,
            SpectralField.zeros(medium_grid, Parity.ODD),
            SpectralField.zeros(medium_grid, Parity.ODD),
        )
        n_w, n_th = nonlinear_term(state)
        assert np.all(n_w.coeff == 0.0)
        assert np.all(n_th.coeff == 0.0)

    def test_single_mode_against_refined_grid(self):
        """Transport of one vorticity mode vs the same product on a 4x grid.

        On the refined grid the quadratic product is fully resolved, so the
        coarse dealiased coefficients must match it exactly on the retained
        band.
        """
        coarse = StripGrid(half_width_lx=4.0 * math.pi, nx=32, ny=8, nu=1.0)
        fine = StripGrid(half_width_lx=4.0 * math.pi, nx=128, ny=32, nu=1.0)

        def plant(grid):
            omega = SpectralField.zeros(grid, Parity.ODD)
            omega.coeff[2, 0] = 0.4 - 0.25j
            omega.coeff[1, 1] = 0.15 + 0.3j
            theta = SpectralField.zeros(grid, Parity.ODD)
            return FlowState(0.0, omega, theta)

        n_w_coarse, _ = nonlinear_term(plant(coarse))
        n_w_fine, _ = nonlinear_term(plant(fine))

        scale = np.abs(n_w_fine.coeff).max()
        for j in range(11):
            for col in range(coarse.ny):
                c = n_w_coarse.coeff[j, col]
                f = n_w_fine.coeff[j, col]
                if j <= coarse.nx // 3 and (col + 1) <= 2 * coarse.ny // 3:
                    assert abs(c - f) < 1e-10 * scale
        # coarse modes outside the dealias band are zeroed
        mask = dealias_mask(coarse)
        assert np.all(n_w_coarse.coeff[mask == 0] == 0.0)

    @pytest.mark.parametrize("nx, ny", [(12, 6), (64, 8), (96, 33)])
    def test_dealias_mask_is_the_two_thirds_rule(self, nx, ny):
        grid = StripGrid(half_width_lx=10.0, nx=nx, ny=ny, nu=1.0)
        j = xi_index(grid)[:, None]
        k = np.arange(1, ny + 1)[None, :]
        mask = dealias_mask(grid)
        assert np.array_equal(mask, (3 * j <= nx) & (3 * k <= 2 * ny))
        # complex 1 and 0, so the in-place product needs no cast
        assert mask.dtype == np.complex128 and not mask.flags.writeable

    def test_matches_direct_quadrature_oracle(self, small_grid, rng):
        """u.grad omega and u.grad theta built from explicit sums.

        Factors are evaluated on the nodes by direct_synthesis, multiplied,
        projected onto the sine-Fourier basis by explicit quadrature sums
        and cut to j <= nx/3, k <= 2 ny/3: no FFT on the oracle side.
        """
        grid = small_grid
        state = FlowState(0.0, random_field(grid, Parity.ODD, rng),
                          random_field(grid, Parity.ODD, rng))
        u1, u2 = velocity_from_vorticity(state.omega)
        u1_g, u2_g = direct_synthesis(u1), direct_synthesis(u2)
        j = xi_index(grid)[:, None]
        k = np.arange(1, grid.ny + 1)[None, :]
        keep = (3 * j <= grid.nx) & (3 * k <= 2 * grid.ny)

        for got, f in zip(nonlinear_term(state), (state.omega, state.theta)):
            product = (u1_g * direct_synthesis(derivative_x(f))
                       + u2_g * direct_synthesis(derivative_y(f)))
            expected = direct_projection(grid, product, Parity.ODD) * keep
            assert np.abs(expected).max() > 0
            assert (np.abs(got.coeff - expected).max()
                    <= 1e-12 * np.abs(expected).max())

    def test_transport_skew_symmetry(self, medium_grid, rng):
        """<u.grad omega, omega> and <u.grad theta, theta> vanish discretely."""
        state = band_limited_state(medium_grid, rng)
        n_w, n_th = nonlinear_term(state)
        w_norm_sq = l2_inner(state.omega, state.omega)
        th_norm_sq = l2_inner(state.theta, state.theta)
        assert abs(l2_inner(n_w, state.omega)) <= 1e-10 * w_norm_sq
        assert abs(l2_inner(n_th, state.theta)) <= 1e-10 * th_norm_sq

    def test_outputs_are_odd_with_zero_walls(self, medium_grid, rng):
        state = band_limited_state(medium_grid, rng)
        n_w, n_th = nonlinear_term(state)
        assert n_w.parity is Parity.ODD
        for f in (n_w, n_th):
            values = to_physical(f).values
            assert np.abs(values[:, 0]).max() == 0.0
            assert np.abs(values[:, -1]).max() == 0.0


class TestStep:
    def test_zero_state_is_fixed_point(self, medium_grid):
        state = FlowState(
            0.0,
            SpectralField.zeros(medium_grid, Parity.ODD),
            SpectralField.zeros(medium_grid, Parity.ODD),
        )
        cfg = StepperConfig(dt=0.1)
        out = step(state, cfg)
        assert np.all(out.omega.coeff == 0.0)
        assert np.all(out.theta.coeff == 0.0)
        assert out.t == pytest.approx(0.1)

    def test_cfl_violation_carries_admissible_dt(self, medium_grid, rng):
        state = band_limited_state(medium_grid, rng, amplitude=50.0)
        cfg = StepperConfig(dt=1e6)
        with pytest.raises(CflViolation) as err:
            step(state, cfg)
        assert err.value.admissible_dt == pytest.approx(admissible_dt(state, cfg))
        # the carried value is itself admissible
        step(state, StepperConfig(dt=0.9 * err.value.admissible_dt))

    def test_admissible_dt_is_the_safety_factor_times_the_advective_bound(
            self, medium_grid, rng):
        state = band_limited_state(medium_grid, rng, amplitude=50.0)
        u1, u2 = velocity_from_vorticity(state.omega)
        bound = min(medium_grid.dx / np.abs(to_physical(u1).values).max(),
                    medium_grid.dy / np.abs(to_physical(u2).values).max())
        assert admissible_dt(state, StepperConfig(dt=1.0)) == pytest.approx(
            0.8 * bound, rel=1e-15)

    def test_real_field_layout_preserved(self, medium_grid, rng):
        """The j = 0 column stays real."""
        state = band_limited_state(medium_grid, rng, amplitude=1e-2)
        cfg = StepperConfig(dt=0.05)
        for _ in range(5):
            state = step(state, cfg)
        for f in (state.omega, state.theta):
            assert np.all(f.coeff[0].imag == 0.0)

    def test_walls_stay_zero_after_steps(self, medium_grid, rng):
        state = band_limited_state(medium_grid, rng, amplitude=1e-2)
        cfg = StepperConfig(dt=0.05)
        for _ in range(10):
            state = step(state, cfg)
        for f in (state.omega, state.theta):
            values = to_physical(f).values
            scale = max(np.abs(values).max(), 1e-300)
            assert np.abs(values[:, 0]).max() <= 1e-10 * scale
            assert np.abs(values[:, -1]).max() <= 1e-10 * scale

    def test_second_order_self_convergence(self):
        """Richardson: strang-rk2 errors shrink by ~4 under dt halving."""
        grid = StripGrid(half_width_lx=4.0 * math.pi, nx=48, ny=8, nu=0.5)
        rng = np.random.default_rng(7)
        state0 = band_limited_state(grid, rng, amplitude=0.05)
        t_end = 1.0

        def final_state(dt):
            s = state0
            cfg = StepperConfig(dt=dt)
            for _ in range(int(round(t_end / dt))):
                s = step(s, cfg)
            return s

        ref = final_state(1.0 / 512.0)

        def err(dt):
            s = final_state(dt)
            return math.sqrt(
                float(np.sum(np.abs(s.omega.coeff - ref.omega.coeff) ** 2))
                + float(np.sum(np.abs(s.theta.coeff - ref.theta.coeff) ** 2))
            )

        e1, e2 = err(1.0 / 32.0), err(1.0 / 64.0)
        order = math.log2(e1 / e2)
        assert order == pytest.approx(2.0, abs=0.2)

    def test_linearization_error_scales_as_amplitude_squared(self):
        """Nonlinear vs exact linear trajectory differs at O(eps^2)."""
        grid = StripGrid(half_width_lx=4.0 * math.pi, nx=48, ny=8, nu=0.5)

        def gap(eps):
            rng = np.random.default_rng(11)
            state0 = band_limited_state(grid, rng, amplitude=eps)
            cfg = StepperConfig(dt=0.01)
            s = state0
            for _ in range(100):
                s = step(s, cfg)
            lin = propagate_linear_pair(state0.omega, state0.theta, 1.0)
            return math.sqrt(
                float(np.sum(np.abs(s.omega.coeff - lin.omega.coeff) ** 2))
                + float(np.sum(np.abs(s.theta.coeff - lin.theta.coeff) ** 2))
            )

        ratio = gap(1e-4) / gap(5e-5)
        assert ratio == pytest.approx(4.0, abs=0.5)


def reference_step(state, dt):
    """The Strang step in its plain allocating form, term by term."""
    grid = state.grid
    m = pair_step_matrix(grid, 0.5 * dt)

    def transport(w, th):
        n_w, n_th = nonlinear_term(FlowState(0.0, SpectralField(grid, Parity.ODD, w),
                                             SpectralField(grid, Parity.ODD, th)))
        return -n_w.coeff, -n_th.coeff

    w, th = apply_pair(m, state.omega.coeff, state.theta.coeff)
    kw1, kt1 = transport(w, th)
    kw2, kt2 = transport(w + 0.5 * dt * kw1, th + 0.5 * dt * kt1)
    w, th = apply_pair(m, w + dt * kw2, th + dt * kt2)
    return FlowState(state.t + dt, SpectralField(grid, Parity.ODD, w),
                     SpectralField(grid, Parity.ODD, th))


def state_bytes(state):
    return state.t, state.omega.coeff.tobytes(), state.theta.coeff.tobytes()


def pinned_digest(steps):
    """sha256 over the states of the first ``steps`` pinned 1024x32 steps."""
    grid = StripGrid(half_width_lx=200.0 * math.pi, nx=1024, ny=32, nu=1.0)
    profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=1e-4),))
    state, _ = make_initial_data(profile, grid)
    digest = hashlib.sha256()
    for _ in range(steps):
        state = step(state, StepperConfig(dt=0.5))
        t, omega, theta = state_bytes(state)
        digest.update(repr(t).encode() + omega + theta)
    return digest.hexdigest()


def trajectory(state, cfg, n):
    out = []
    for _ in range(n):
        state = step(state, cfg)
        out.append(state_bytes(state))
    return out


class TestStepScratch:
    """step reuses per-grid, per-thread buffers; results must not notice."""

    CFG = StepperConfig(dt=0.02)

    def test_matches_the_allocating_reference_bit_for_bit(self, medium_grid, rng):
        state0 = band_limited_state(medium_grid, rng, amplitude=2.0)
        state = ref = state0
        for _ in range(20):
            state = step(state, self.CFG)
            ref = reference_step(ref, self.CFG.dt)
            assert state_bytes(state) == state_bytes(ref)
        # transport moved the state well away from the linear evolution
        linear = propagate_linear_pair(state0.omega, state0.theta, state.t)
        gap = np.abs(state.omega.coeff - linear.omega.coeff).max()
        assert gap > 1e-4 * np.abs(linear.omega.coeff).max()

    def test_returned_state_is_not_reused(self, medium_grid, rng):
        state0 = band_limited_state(medium_grid, rng, amplitude=0.5)
        before0 = state_bytes(state0)
        state1 = step(state0, self.CFG)
        before1 = state_bytes(state1)
        state = state1
        for _ in range(5):
            state = step(state, self.CFG)
        nonlinear_term(state)
        assert state_bytes(state0) == before0
        assert state_bytes(state1) == before1

    def test_interleaved_trajectories_match_solo_runs(self, medium_grid, rng):
        other = StripGrid(half_width_lx=40.0 * math.pi, nx=64, ny=8, nu=1.0)
        starts = [band_limited_state(medium_grid, rng, amplitude=0.5),
                  band_limited_state(medium_grid, rng, amplitude=0.3),
                  band_limited_state(other, rng, amplitude=0.5)]
        solo = [trajectory(s, self.CFG, 8) for s in starts]
        states = list(starts)
        mixed = [[] for _ in starts]
        for _ in range(8):
            for i, s in enumerate(states):
                states[i] = step(s, self.CFG)
                mixed[i].append(state_bytes(states[i]))
        assert mixed == solo

    def test_threads_on_one_grid_match_the_serial_result(self, medium_grid, rng):
        starts = [band_limited_state(medium_grid, rng, amplitude=0.5) for _ in range(2)]
        serial = [trajectory(s, self.CFG, 100) for s in starts]
        results = [None, None]

        def work(i):
            results[i] = trajectory(starts[i], self.CFG, 100)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside a step, not between
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == serial

    @staticmethod
    def cpus(monkeypatch, n):
        """Make the solver see n usable CPUs: two lanes at n >= 2, inline at 1."""
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: set(range(n)))

    def test_one_cpu_runs_the_lanes_inline_to_the_same_bits(self, medium_grid, rng,
                                                            monkeypatch):
        state0 = band_limited_state(medium_grid, rng, amplitude=2.0)
        self.cpus(monkeypatch, 2)
        lanes = set()
        real = solver.to_spectral

        def recording(f, out=None):
            lanes.add(threading.current_thread())
            return real(f, out=out)

        monkeypatch.setattr(solver, "to_spectral", recording)
        two_lanes = trajectory(state0, self.CFG, 20)
        assert len(lanes) == 2

        self.cpus(monkeypatch, 1)
        monkeypatch.setattr(solver._helper, "submit", None)  # any use would fail
        lanes.clear()
        assert trajectory(state0, self.CFG, 20) == two_lanes
        assert lanes == {threading.current_thread()}

    def test_a_helper_lane_error_reaches_the_caller(self, medium_grid, rng, monkeypatch):
        state = band_limited_state(medium_grid, rng, amplitude=0.5)
        self.cpus(monkeypatch, 1)
        serial = state_bytes(step(state, self.CFG))

        self.cpus(monkeypatch, 2)
        caller = threading.current_thread()
        real = solver.to_spectral

        def failing_off_the_caller(f, out=None):
            if threading.current_thread() is not caller:
                raise ParityError("injected in the helper lane")
            return real(f, out=out)

        monkeypatch.setattr(solver, "to_spectral", failing_off_the_caller)
        with pytest.raises(ParityError, match="injected in the helper lane"):
            step(state, self.CFG)
        monkeypatch.setattr(solver, "to_spectral", real)
        assert state_bytes(step(state, self.CFG)) == serial

    def test_a_forked_child_steps_after_the_parent(self, medium_grid, rng, monkeypatch):
        """The child gets its own helper; the parent's thread is not in it."""
        self.cpus(monkeypatch, 2)
        state = band_limited_state(medium_grid, rng, amplitude=0.5)
        expected = state_bytes(step(state, self.CFG))  # the parent's helper is running

        def child():
            sys.exit(0 if state_bytes(step(state, self.CFG)) == expected else 1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0

    @pytest.mark.parametrize("blas_threads", ["1", "2"])
    def test_blas_threading_leaves_the_bits_alone(self, blas_threads):
        """The y-transforms run through BLAS: any thread count, the same states."""
        src = os.path.dirname(os.path.dirname(solver.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
        child = subprocess.run(
            [sys.executable, "-c", "from test_solver import pinned_digest; print(pinned_digest(20))"],
            env=env, capture_output=True, text=True, timeout=300, check=True)
        assert child.stdout.strip() == pinned_digest(20)

    @pytest.mark.parametrize("nx, ny", [(64, 8), (1024, 32)])
    def test_a_warmed_step_allocates_little_beyond_its_result(self, nx, ny):
        """Traced-memory peak of one step: the returned state is 2 lattices."""
        grid = StripGrid(half_width_lx=200.0 * math.pi, nx=nx, ny=ny, nu=1.0)
        profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=1e-4),))
        state, _ = make_initial_data(profile, grid)
        cfg = StepperConfig(dt=0.5)
        for _ in range(2):
            state = step(state, cfg)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state = step(state, cfg)
            growth = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert growth <= 3 * math.prod(grid.coeff_shape(Parity.ODD)) * 16


class TestTrajectory:
    def test_zero_initial_data_stays_zero(self, medium_grid):
        state0 = FlowState(
            0.0,
            SpectralField.zeros(medium_grid, Parity.ODD),
            SpectralField.zeros(medium_grid, Parity.ODD),
        )
        states = list(solver.trajectory(state0, StepperConfig(dt=0.25), [0.5, 1.0, 2.0]))
        assert len(states) == 3
        for s in states:
            assert np.all(s.omega.coeff == 0.0)

    def test_snapshot_times_are_step_boundaries(self, medium_grid, rng):
        state0 = band_limited_state(medium_grid, rng, amplitude=1e-3)
        states = solver.trajectory(state0, StepperConfig(dt=0.25), [0.3, 0.9, 1.4, 2.0])
        recorded = [s.t for s in states]
        assert recorded == pytest.approx([0.25, 1.0, 1.5, 2.0])

    def test_rejects_unsorted_samples(self, medium_grid, rng, monkeypatch):
        state0 = band_limited_state(medium_grid, rng)
        calls = []
        monkeypatch.setattr(solver, "step", lambda state, cfg: calls.append(state))
        with pytest.raises(ValueError, match="strictly increasing"):
            list(solver.trajectory(state0, StepperConfig(dt=0.1), [0.5, 0.4]))
        assert calls == []

    def test_steps_only_up_to_the_last_sample(self, medium_grid, rng, monkeypatch):
        state0 = band_limited_state(medium_grid, rng, amplitude=1e-3)
        calls = []

        def counted(state, cfg):
            calls.append(state.t)
            return step(state, cfg)

        monkeypatch.setattr(solver, "step", counted)
        states = list(solver.trajectory(state0, StepperConfig(dt=0.25), [0.25, 0.5]))
        assert len(calls) == 2
        assert [s.t for s in states] == [0.25, 0.5]

    def test_memory_is_bounded_by_the_grid_not_the_samples(self):
        """Streamed into theorem_suite, 400 samples peak within two lattices
        of 20, beyond the suite's own curves (a kept list of snapshots
        grows two lattices a sample).

        The suite's curves, ten floats a sample, are measured on a stream
        of snapshots that share one pair of lattices.
        """
        nx, ny = 64, 8
        grid = StripGrid(half_width_lx=20.0 * math.pi, nx=nx, ny=ny, nu=1.0)
        profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=1e-4),))
        state0, _ = make_initial_data(profile, grid)
        cfg = StepperConfig(dt=0.5)
        warm = list(solver.trajectory(state0, cfg, [0.5, 1.0]))[-1]  # caches, scratch

        def peak(states):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                theorem_suite(states)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        def streamed(n):
            return peak(solver.trajectory(state0, cfg, 0.5 * np.arange(1, n + 1)))

        def curves_only(n):
            return peak(FlowState(0.5 * i, warm.omega, warm.theta) for i in range(1, n + 1))

        growth = streamed(400) - streamed(20)
        assert growth < curves_only(400) - curves_only(20) + 2 * nx * ny * 16


class TestMakeInitialData:
    def test_gaussian_row_and_zero_walls(self, medium_grid):
        profile = InitialProfile(
            theta=(ProfileComponent(k=1, amplitude=1e-4, xi_scale=1.0),)
        )
        state, report = make_initial_data(profile, medium_grid)
        assert np.abs(state.theta.coeff[:, 1:]).max() == 0.0
        values = to_physical(state.theta).values
        assert np.abs(values[:, 0]).max() == 0.0
        assert np.abs(values[:, -1]).max() == 0.0
        assert report["omega0_l2"] == 0.0

    def test_even_y_derivatives_vanish_on_walls(self, medium_grid):
        from stripflow.operators import derivative_y

        profile = InitialProfile(
            theta=(ProfileComponent(k=2, amplitude=1.0, xi_scale=2.0),)
        )
        state, _ = make_initial_data(profile, medium_grid)
        dyy = derivative_y(derivative_y(state.theta))
        values = to_physical(dyy).values
        assert np.abs(values[:, 0]).max() == 0.0
        assert np.abs(values[:, -1]).max() == 0.0

    def test_l2_norm_matches_gaussian_integral(self):
        """Discrete sum vs the closed-form integral of the envelope."""
        grid = StripGrid(half_width_lx=200.0 * math.pi, nx=1024, ny=8, nu=1.0)
        eps = 1e-4
        profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=eps),))
        _, report = make_initial_data(profile, grid)
        exact = eps * (math.pi / 2.0) ** 0.25  # sqrt of integral of eps^2 e^{-2 xi^2}
        assert report["theta0_l2"] == pytest.approx(exact, rel=1e-6)

    def test_rejects_k_zero_component(self):
        with pytest.raises(ValueError, match="k >= 1"):
            ProfileComponent(k=0, amplitude=1.0)

    def test_rejects_k_above_grid(self, small_grid):
        profile = InitialProfile(
            theta=(ProfileComponent(k=small_grid.ny + 1, amplitude=1.0),)
        )
        with pytest.raises(ValueError, match="exceeds ny"):
            make_initial_data(profile, small_grid)

    def test_surrogate_norms_reported(self, small_grid):
        profile = InitialProfile(
            theta=(ProfileComponent(k=1, amplitude=1.0),),
            omega=(ProfileComponent(k=1, amplitude=0.5),),
        )
        _, report = make_initial_data(profile, small_grid)
        assert report["theta0_w81_surrogate"] > 0
        assert report["omega0_w51_surrogate"] > 0


class TestSnapshots:
    def test_state_roundtrip_bit_exact(self, small_grid, rng, tmp_path):
        state = band_limited_state(small_grid, rng)
        state = FlowState(1.25, state.omega, state.theta)
        save_state(state, tmp_path, "snap")
        back = load_state(tmp_path, "snap")
        assert back.t == state.t
        assert np.array_equal(back.omega.coeff, state.omega.coeff)
        assert np.array_equal(back.theta.coeff, state.theta.coeff)
        assert back.grid == state.grid

    def test_velocity_divergence_along_trajectory(self, medium_grid, rng):
        from stripflow.operators import derivative_x, derivative_y

        state = band_limited_state(medium_grid, rng, amplitude=1e-2)
        cfg = StepperConfig(dt=0.05)
        for _ in range(3):
            state = step(state, cfg)
            u1, u2 = velocity_from_vorticity(state.omega)
            div = derivative_x(u1) + derivative_y(u2)
            assert np.abs(div.coeff).max() <= 1e-13 * max(
                np.abs(state.omega.coeff).max(), 1e-300
            )


class TestBlowupDetection:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_state_aborts_with_mode_index(self, medium_grid, monkeypatch):
        """The report names the planted mode: column j = 3, sine row k = 3.

        With transport on, the transforms carry a NaN to every mode, so
        the step runs with a zero transport term and the NaN stays put.
        """
        omega = SpectralField.zeros(medium_grid, Parity.ODD)
        theta = SpectralField.zeros(medium_grid, Parity.ODD)
        omega.coeff[3, 2] = np.nan
        state = FlowState(0.0, omega, theta)

        def no_transport(state, out):
            for f in out:
                f.coeff[...] = 0.0
            return out

        monkeypatch.setattr(solver, "nonlinear_term", no_transport)
        with pytest.raises(NumericalBlowup) as err:
            step(state, StepperConfig(dt=0.1))
        assert err.value.field == "omega"
        assert err.value.mode_index == (3, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_trajectory_keeps_earlier_snapshots_then_raises(self, medium_grid):
        omega = SpectralField.zeros(medium_grid, Parity.ODD)
        theta = SpectralField.zeros(medium_grid, Parity.ODD)
        omega.coeff[3, 2] = np.inf
        state = FlowState(0.0, omega, theta)
        states = []
        with pytest.raises(NumericalBlowup, match="non-finite"):
            states.extend(solver.trajectory(state, StepperConfig(dt=0.1), [0.0, 0.5, 1.0]))
        assert [s.t for s in states] == [0.0]


class TestCrossModuleConsistency:
    def test_truncated_linear_matches_continuum_curves(self):
        """Lattice norms reproduce the continuum quadrature inside the
        honesty window (the truncation sum is a rectangle rule for the
        smooth xi-integrand, so agreement is far below a percent)."""
        from stripflow.analysis import continuum_linear_decay
        from stripflow.diagnostics import NormId, norm

        grid = StripGrid(half_width_lx=200.0 * math.pi, nx=1024, ny=8, nu=1.0)
        profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=1.0),))
        state0, _ = make_initial_data(profile, grid)
        times = np.logspace(1, 3, 7)

        (continuum,) = continuum_linear_decay(
            profile, grid.nu, [("theta", NormId.sobolev(4))], times
        )
        for t, expected in zip(times, continuum.values):
            s = propagate_linear_pair(state0.omega, state0.theta, t)
            lattice = norm(s.theta, NormId.sobolev(4))
            assert lattice == pytest.approx(expected, rel=1e-4)
