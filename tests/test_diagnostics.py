"""Norms, rate fits, energy reports and the theorem ladder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripflow.diagnostics import (
    THEOREM_LADDER,
    DecayCurve,
    NormId,
    energy_report,
    fit_rate,
    grad_inner,
    l2_inner,
    norm,
    theorem_suite,
)
from stripflow.errors import GridMismatchError, WindowTooShort
from stripflow.fields import (
    FlowState,
    InitialProfile,
    Parity,
    ProfileComponent,
    SpectralField,
    StripGrid,
    random_field,
    xi_values,
)
from stripflow.propagators import propagate_linear_pair
from stripflow.solver import make_initial_data, nonlinear_term
from stripflow.transforms import to_physical

from conftest import quadrature_l2


class TestNorm:
    def test_zero_field_all_norms(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        for nid in (NormId.l2hat(), NormId.l1hat(), NormId.sobolev(3), NormId.linf()):
            assert norm(f, nid) == 0.0

    def test_single_mode_sobolev_formula(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        row, col = 3, 1  # (xi_3, k=2)
        a = 0.6 - 0.8j  # |a| = 1
        f.coeff[row, col] = a
        xi0 = float(xi_values(small_grid)[row])
        m = 3
        # the stored column j = 3 stands for the modes j = 3 and j = -3
        expected = (
            abs(a)
            * (1.0 + xi0**2 + (2 * math.pi) ** 2) ** (m / 2.0)
            * math.sqrt(2.0 * small_grid.dxi)
        )
        assert norm(f, NormId.sobolev(m)) == pytest.approx(expected, rel=1e-14)

    def test_l2hat_equals_physical_quadrature(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        assert norm(f, NormId.l2hat()) == pytest.approx(
            quadrature_l2(to_physical(f)), rel=1e-10
        )

    def test_sobolev_monotone_in_order(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        values = [norm(f, NormId.sobolev(m)) for m in range(5)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_l1hat_dominates_sup_norm(self, rng):
        """Discrete shadow of the summable-coefficient embedding.

        With the stored coefficient convention the bound is exactly
        |f|_inf <= l1hat(f) / sqrt(pi): the synthesis amplitudes are
        coeff * sqrt(pi)/Lx and the quadrature weight is pi/Lx.
        """
        grid = StripGrid(half_width_lx=3.0 * math.pi, nx=16, ny=4, nu=1.0)
        c = 1.0 / math.sqrt(math.pi)
        for _ in range(1000):
            f = random_field(grid, Parity.ODD, rng)
            assert norm(f, NormId.linf()) <= c * norm(f, NormId.l1hat()) * (1 + 1e-12)

    def test_weighted_norms(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        f.coeff[2, 0] = 1.0
        xi0 = abs(float(xi_values(small_grid)[2]))
        base = norm(f, NormId.l2hat())
        assert norm(f, NormId.l2hat(weight="xi")) == pytest.approx(xi0 * base)
        assert norm(f, NormId.l2hat(weight="xi2")) == pytest.approx(xi0**2 * base)
        assert norm(f, NormId.l2hat(weight="kpi")) == pytest.approx(math.pi * base)


class TestFitRate:
    def test_exact_power_law(self):
        ts = np.logspace(0, 3, 40)
        curve = DecayCurve(ts, 3.7 * ts**-1.0, "p")
        fit = fit_rate(curve, (1.0, 1e3))
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.7, rel=1e-10)

    def test_exponential_is_detected_as_non_algebraic(self):
        ts = np.logspace(1, 2, 30)
        curve = DecayCurve(ts, np.exp(-ts / 10.0), "e")
        fit = fit_rate(curve, (10.0, 100.0))
        assert fit.r_squared < 0.98

    def test_scale_equivariance_bit_identical(self):
        rng = np.random.default_rng(3)
        ts = np.logspace(0, 2, 20)
        vals = ts**-0.73 * np.exp(0.05 * rng.standard_normal(20))
        base = fit_rate(DecayCurve(ts, vals, "v"), (1.0, 100.0))
        for c in (2.0, 0.5, 1024.0, 2.0**-20):
            scaled = fit_rate(DecayCurve(ts, c * vals, "v"), (1.0, 100.0))
            assert scaled.exponent == base.exponent  # bit-identical
            assert scaled.intercept != base.intercept

    @given(expo=st.floats(-2.0, -0.1), scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_recovers_planted_exponent(self, expo, scale):
        ts = np.logspace(0.5, 2.5, 24)
        fit = fit_rate(DecayCurve(ts, scale * ts**expo, "p"), (3.0, 320.0))
        assert fit.exponent == pytest.approx(expo, abs=1e-9)

    def test_slope_matches_pairwise_reference(self):
        """The O(n) slope equals the pairwise log-ratio sum to rounding."""
        rng = np.random.default_rng(11)
        for n in (8, 20, 40, 97):
            ts = np.logspace(0, rng.uniform(1.0, 4.0), n)
            vals = ts ** rng.uniform(-2.0, -0.1) * np.exp(0.1 * rng.standard_normal(n))
            x = np.log(ts)
            num = sum(float(np.sum((x[i + 1:] - x[i]) * np.log(vals[i + 1:] / vals[i])))
                      for i in range(n - 1))
            den = sum(float(np.sum((x[i + 1:] - x[i]) ** 2)) for i in range(n - 1))
            fit = fit_rate(DecayCurve(ts, vals, "v"), (ts[0], ts[-1]))
            assert fit.exponent == pytest.approx(num / den, rel=1e-13)

    def test_too_few_samples_in_window(self):
        ts = np.logspace(0, 3, 30)
        curve = DecayCurve(ts, ts**-1.0, "p")
        with pytest.raises(ValueError, match="need >= 8 samples"):
            fit_rate(curve, (1.0, 1.5))

    def test_non_positive_values_rejected(self):
        ts = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
        curve = DecayCurve(ts, np.array([1, 1, 1, 0, 1, 1, 1, 1.0]), "z")
        with pytest.raises(ValueError, match="non-positive"):
            fit_rate(curve, (1.0, 128.0))


def linear_snapshots(grid, rng, n, t_end, amplitude=1.0):
    omega0 = random_field(grid, Parity.ODD, rng, amplitude, kmax=1, jmax=2)
    theta0 = random_field(grid, Parity.ODD, rng, amplitude, kmax=1, jmax=2)
    ts = np.linspace(0.0, t_end, n)
    return [propagate_linear_pair(omega0, theta0, t) for t in ts]


#: 16 sine rows, so data in rows 1..8 take the strided span, not the whole axis
TALL_GRID = StripGrid(half_width_lx=20.0 * math.pi, nx=64, ny=16, nu=1.0)


def row_snapshots(grid, ks, times):
    """Exact linear snapshots of profile data held in the sine rows ``ks``."""
    profile = InitialProfile(
        theta=[ProfileComponent(k, 1.0, 1.0 + 0.5 * k) for k in ks],
        omega=[ProfileComponent(k, -0.3, 0.8) for k in ks],
    )
    state0, _ = make_initial_data(profile, grid)
    return [propagate_linear_pair(state0.omega, state0.theta, t) for t in times]


class TestEnergyReport:
    def test_zero_trajectory_reports_zero(self, small_grid):
        zero = SpectralField.zeros(small_grid, Parity.ODD)
        traj = [FlowState(t, zero.copy(), zero.copy()) for t in (0.0, 0.5, 1.0)]
        rep = energy_report(traj, small_grid.nu)
        assert np.all(rep.energy == 0.0)
        assert rep.dissipation == 0.0
        assert np.all(rep.b3 == 0.0)

    def test_linear_energy_law_residual(self):
        """dE/dt = -2 nu |grad omega|^2 along exact linear snapshots."""
        grid = StripGrid(half_width_lx=4.0 * math.pi, nx=32, ny=4, nu=0.25)
        rng = np.random.default_rng(5)
        traj = linear_snapshots(grid, rng, 4001, 2.0)
        rep = energy_report(traj, grid.nu)
        assert rep.residual_linear <= 1e-6

    def test_residual_improves_at_second_order(self):
        grid = StripGrid(half_width_lx=4.0 * math.pi, nx=32, ny=4, nu=0.25)
        rng = np.random.default_rng(5)
        coarse = energy_report(linear_snapshots(grid, rng, 501, 2.0), grid.nu)
        rng = np.random.default_rng(5)
        fine = energy_report(linear_snapshots(grid, rng, 1001, 2.0), grid.nu)
        ratio = coarse.residual_linear / fine.residual_linear
        assert ratio == pytest.approx(4.0, abs=0.8)

    def test_b3_cancellation_is_discrete_zero(self, medium_grid, rng):
        traj = linear_snapshots(medium_grid, rng, 3, 1.0)
        rep = energy_report(traj, medium_grid.nu)
        scale = max(rep.energy.max(), 1e-300)
        assert np.abs(rep.b3).max() <= 1e-10 * scale

    def test_one_row_data_match_full_lattice_inner_products(self):
        traj = row_snapshots(TALL_GRID, [2], np.linspace(0.0, 1.0, 5))
        rep = energy_report(traj, TALL_GRID.nu)
        energy = [grad_inner(s.theta, s.theta) + l2_inner(s.omega, s.omega)
                  for s in traj]
        grad_omega_sq = [grad_inner(s.omega, s.omega) for s in traj]
        np.testing.assert_allclose(rep.energy, energy, rtol=1e-14, atol=0)
        np.testing.assert_allclose(rep.grad_omega_sq, grad_omega_sq, rtol=1e-14, atol=0)
        assert np.abs(rep.b3).max() <= 1e-10 * rep.energy.max()

    def test_nan_in_an_empty_row_is_not_skipped(self):
        traj = row_snapshots(TALL_GRID, [2], np.linspace(0.0, 1.0, 3))
        traj[1].theta.coeff[3, 6] = np.nan
        rep = energy_report(traj, TALL_GRID.nu)
        assert np.isfinite(rep.energy[[0, 2]]).all()
        assert not np.isfinite(rep.energy[1])
        for nid in (NormId.l2hat(), NormId.l1hat(), NormId.sobolev(4)):
            assert not math.isfinite(norm(traj[1].theta, nid))
            assert math.isfinite(norm(traj[0].theta, nid))

    def test_rejects_nonuniform_spacing(self, small_grid, rng):
        zero = SpectralField.zeros(small_grid, Parity.ODD)
        traj = [FlowState(t, zero.copy(), zero.copy()) for t in (0.0, 0.4, 1.0)]
        with pytest.raises(ValueError, match="uniformly spaced"):
            energy_report(traj, small_grid.nu)

    def test_generator_input_equals_list_input(self, medium_grid, rng):
        traj = linear_snapshots(medium_grid, rng, 9, 1.0)
        from_list = energy_report(traj, medium_grid.nu)
        from_gen = energy_report((s for s in traj), medium_grid.nu)
        for name in ("times", "energy", "grad_omega_sq", "b1", "b2", "b3"):
            assert np.array_equal(getattr(from_gen, name), getattr(from_list, name))
        assert from_gen.residual_linear == from_list.residual_linear

    def test_thinned_equals_report_on_every_other_snapshot(self, medium_grid, rng):
        traj = linear_snapshots(medium_grid, rng, 9, 1.0)
        thinned = energy_report(traj, medium_grid.nu).thinned(2)
        direct = energy_report(traj[::2], medium_grid.nu)
        for name in ("times", "energy", "grad_omega_sq", "b1", "b2", "b3"):
            assert np.array_equal(getattr(thinned, name), getattr(direct, name))
        assert thinned.dissipation == direct.dissipation
        assert thinned.residual_linear == direct.residual_linear
        with pytest.raises(ValueError, match="at least 3"):
            energy_report(traj[:5], medium_grid.nu).thinned(4)
        with pytest.raises(ValueError, match="does not divide 8 intervals"):
            energy_report(traj, medium_grid.nu).thinned(3)

    def test_streamed_snapshots_keep_their_checks(self, small_grid, medium_grid):
        def states(grids, times):
            return (FlowState(t, SpectralField.zeros(g, Parity.ODD),
                              SpectralField.zeros(g, Parity.ODD))
                    for g, t in zip(grids, times))

        with pytest.raises(ValueError, match="at least 3"):
            energy_report(states([small_grid] * 2, [0.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="uniformly spaced"):
            energy_report(states([small_grid] * 3, [0.0, 0.4, 1.0]), 1.0)
        with pytest.raises(GridMismatchError, match="different grids"):
            energy_report(states([small_grid, medium_grid, small_grid],
                                 [0.0, 0.5, 1.0]), 1.0)

    def test_nonlinear_flux_closes_balance(self):
        """Full balance dE/dt + 2 nu |grad omega|^2 = flux on a solver run."""
        from stripflow.solver import StepperConfig, step

        grid = StripGrid(half_width_lx=4.0 * math.pi, nx=32, ny=4, nu=0.5)
        rng = np.random.default_rng(9)
        omega = random_field(grid, Parity.ODD, rng, 1e-2, kmax=1, jmax=8)
        theta = random_field(grid, Parity.ODD, rng, 1e-2, kmax=1, jmax=8)
        state = FlowState(0.0, omega, theta)
        cfg = StepperConfig(dt=5e-5)
        traj = [state]
        for _ in range(2000):
            state = step(state, cfg)
            traj.append(state)
        rep = energy_report(traj, grid.nu, nonlinear_terms=nonlinear_term)
        assert rep.residual_full <= 1e-6
        # transport skew-symmetry: B1 vanishes discretely
        assert np.abs(rep.b1).max() <= 1e-10 * rep.energy.max()


class TestTheoremSuite:
    def test_window_too_short_is_refused(self, small_grid, rng):
        traj = linear_snapshots(small_grid, rng, 12, 2.0)
        with pytest.raises(WindowTooShort):
            theorem_suite(traj, window=(1.0, 2.0))

    def test_zero_trajectory_refused_on_nonpositive_values(self, small_grid):
        zero = SpectralField.zeros(small_grid, Parity.ODD)
        ts = np.logspace(0, 2, 12)
        traj = [FlowState(t, zero.copy(), zero.copy()) for t in ts]
        with pytest.raises(ValueError, match="non-positive"):
            theorem_suite(traj, window=(1.0, 100.0))

    def test_ladder_has_nine_entries_with_fits(self, medium_grid, rng):
        ts = np.logspace(0, 1.1, 14)
        omega0 = random_field(medium_grid, Parity.ODD, rng, kmax=2, jmax=4)
        theta0 = random_field(medium_grid, Parity.ODD, rng, kmax=2, jmax=4)
        traj = [propagate_linear_pair(omega0, theta0, t) for t in ts]
        results = theorem_suite(traj, window=(1.0, 12.5))
        assert len(results) == 9
        labels = {c.label for c, _, _ in results}
        assert "theta_h4" in labels and "omega_linf_surrogate" in labels
        for _, fit, expected in results:
            assert math.isfinite(fit.exponent)
            assert -2.0 < expected < 0.0

    def test_curves_equal_norm_of_each_snapshot(self, medium_grid, rng):
        ts = np.logspace(0, 1.1, 12)
        traj = [
            FlowState(t, random_field(medium_grid, Parity.ODD, rng),
                      random_field(medium_grid, Parity.ODD, rng))
            for t in ts
        ]
        results = theorem_suite(traj, window=(1.0, 12.5))
        for (curve, _, _), (label, which, nid, _) in zip(results, THEOREM_LADDER):
            assert curve.label == label
            want = [norm(getattr(s, which), nid) for s in traj]
            assert np.array_equal(curve.values, want)

    @pytest.mark.parametrize("ks", [[1], [1, 5]], ids=["one_row", "rows_1_and_5"])
    def test_curves_equal_norm_on_sparse_rows(self, ks):
        traj = row_snapshots(TALL_GRID, ks, np.logspace(0, 1.1, 12))
        results = theorem_suite(traj, window=(1.0, 12.5))
        for (curve, _, _), (_, which, nid, _) in zip(results, THEOREM_LADDER):
            want = [norm(getattr(s, which), nid) for s in traj]
            assert np.array_equal(curve.values, want)

    @pytest.mark.parametrize("window", [None, (1.0, 12.5)], ids=["default", "given"])
    def test_generator_input_equals_list_input(self, medium_grid, rng, window):
        omega0 = random_field(medium_grid, Parity.ODD, rng, kmax=2, jmax=4)
        theta0 = random_field(medium_grid, Parity.ODD, rng, kmax=2, jmax=4)
        ts = np.concatenate([[0.0], np.logspace(0, 1.1, 12)])
        listed = theorem_suite([propagate_linear_pair(omega0, theta0, t) for t in ts],
                               window=window)
        streamed = theorem_suite((propagate_linear_pair(omega0, theta0, t) for t in ts),
                                 window=window)
        for (c1, f1, e1), (c2, f2, e2) in zip(listed, streamed, strict=True):
            assert c1.label == c2.label and e1 == e2
            assert np.array_equal(c1.times, c2.times)
            assert np.array_equal(c1.values, c2.values)
            assert f1 == f2

    def test_default_window_below_a_decade_is_refused(self):
        traj = row_snapshots(TALL_GRID, [1], np.logspace(0, 0.5, 12))
        with pytest.raises(WindowTooShort):
            theorem_suite(traj)

    def test_given_window_is_checked_before_any_snapshot_is_read(self):
        def snapshots():
            raise AssertionError("a snapshot was read")
            yield
        with pytest.raises(WindowTooShort):
            theorem_suite(snapshots(), window=(1.0, 2.0))

    def test_snapshots_on_different_grids_are_refused(self, rng):
        """Same lattice shape, different Lx: weights and dxi would be wrong."""
        grids = [StripGrid(half_width_lx=lx, nx=64, ny=8, nu=1.0)
                 for lx in (20.0 * math.pi, 40.0 * math.pi)]
        ts = np.logspace(0, 1.1, 12)
        traj = [FlowState(t, random_field(grids[i % 2], Parity.ODD, rng),
                          random_field(grids[i % 2], Parity.ODD, rng))
                for i, t in enumerate(ts)]
        with pytest.raises(GridMismatchError, match="different grids"):
            theorem_suite(traj, window=(1.0, 12.5))

    def test_default_window_needs_a_positive_time(self, small_grid):
        zero = SpectralField.zeros(small_grid, Parity.ODD)
        traj = [FlowState(0.0, zero, zero)]
        with pytest.raises(ValueError, match="needs a snapshot at t > 0"):
            theorem_suite(traj)


class TestInnerProducts:
    def test_l2_inner_matches_physical_quadrature(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        g = random_field(medium_grid, Parity.ODD, rng)
        w = np.ones(medium_grid.ny + 1)
        w[0] = w[-1] = 0.5
        phys = float(
            np.sum(to_physical(f).values * to_physical(g).values * w[None, :])
        ) * medium_grid.dx * medium_grid.dy
        assert l2_inner(f, g) == pytest.approx(phys, rel=1e-10)
