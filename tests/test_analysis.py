"""Frequency analysis: nu*, symbol bounds, kernel integral, decay curves."""

import math

import numpy as np
import pytest

from stripflow.analysis import (
    CONTINUUM_LADDER,
    NU_STAR_SQUARED,
    QuadratureSpec,
    _gauss_panels,
    continuum_linear_decay,
    kernel_decay_integral,
    kernel_decay_integral_polar,
    nu_star,
    nu_star_grid_search,
    sample_region_modes,
    truncation_honesty_tmax,
    verify_symbol_bounds,
)
from stripflow.diagnostics import NormId, fit_rate, norm_weight
from stripflow.fields import InitialProfile, ProfileComponent, StripGrid
from stripflow.propagators import classify_region, pair_values, sigma_lambda

from conftest import per_sample_region_modes, per_time_symbol_constants


class TestNuStar:
    def test_below_one(self):
        assert 0.0 < NU_STAR_SQUARED < 1.0

    def test_closed_form_value(self):
        assert nu_star() ** 2 == pytest.approx(16.0 / (27.0 * math.pi**4), rel=1e-15)

    def test_grid_search_confirms_closed_form(self):
        best, best_xi, best_k = nu_star_grid_search()
        assert best_k == 1
        assert best == pytest.approx(NU_STAR_SQUARED, abs=1e-9)
        # stationary point xi^2 = pi^2 / 2
        assert best_xi**2 == pytest.approx(math.pi**2 / 2.0, rel=1e-3)

    def test_k_ge_2_supremum_strictly_smaller(self):
        best_k2, _, _ = nu_star_grid_search(k_min=2)
        assert best_k2 < NU_STAR_SQUARED
        # closed form scales as k^{-4}
        assert best_k2 == pytest.approx(NU_STAR_SQUARED / 16.0, rel=1e-6)


class TestSymbolBounds:
    def test_region1_constant_close_to_one_for_l1(self, rng):
        """|l1| <= e^{-xi^2 t/(nu p^2)} holds with C <= 1 in the overdamped zone."""
        rep = verify_symbol_bounds(1.0, 1, 400, rng)
        assert not rep.empty
        assert rep.constants["l1"] <= 1.0 + 1e-9

    def test_regions_2_to_4_empty_at_nu_one(self, rng):
        for region in (2, 3, 4):
            rep = verify_symbol_bounds(1.0, region, 200, rng)
            assert rep.empty

    def test_oscillatory_regions_empty_above_nu_star(self, rng):
        for region in (3, 4):
            rep = verify_symbol_bounds(2.0 * nu_star(), region, 200, rng)
            assert rep.empty

    @pytest.mark.parametrize("region", [1, 2, 3, 4])
    def test_all_regions_nonempty_at_low_viscosity(self, rng, region):
        xi, k = sample_region_modes(0.01, region, 100, rng)
        assert len(xi) >= 100
        assert np.all(classify_region(xi, k, 0.01) == region)

    @pytest.mark.parametrize("region", [1, 2, 3, 4])
    def test_finite_stable_constants_at_low_viscosity(self, rng, region):
        rep = verify_symbol_bounds(0.01, region, 500, rng)
        assert not rep.empty
        for q, c in rep.constants.items():
            assert np.isfinite(c), q
        assert rep.stable

    def test_region3_l2_envelope(self, rng):
        rep = verify_symbol_bounds(0.01, 3, 300, rng)
        assert np.isfinite(rep.constants["l2"])

    def test_region4_all_four_quantities(self, rng):
        rep = verify_symbol_bounds(0.01, 4, 300, rng)
        for q in ("l1", "l2", "dt_l1", "dt_l2"):
            assert np.isfinite(rep.constants[q])


#: viscosities on both sides of nu* and at it: all four regions are
#: inhabited below nu*, only I1 and I2 above it
REFERENCE_NUS = (0.003, 0.01, 0.05, 0.5 * nu_star(), nu_star(), 1.01 * nu_star(),
                 2.0 * nu_star(), 1.0)


class TestWholeArrayPassesMatchThePerSampleReference:
    """The sampler draws a row's jitters and signs in one call and the
    checker evaluates all 26 times at once; both must give the numbers, and
    leave the generator in the state, of the one-sample-at-a-time code."""

    @pytest.mark.parametrize("region", [1, 2, 3, 4])
    @pytest.mark.parametrize("nu", REFERENCE_NUS)
    def test_sampler(self, nu, region):
        for seed in (0, 5, 1324930728):
            for count in (1, 7, 50, 1000):
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                xi, k = sample_region_modes(nu, region, count, fast)
                xi_ref, k_ref = per_sample_region_modes(nu, region, count, slow)
                assert np.array_equal(xi, xi_ref), (seed, count)
                assert np.array_equal(k, k_ref), (seed, count)
                assert xi.dtype == xi_ref.dtype and k.dtype == k_ref.dtype
                assert fast.bit_generator.state == slow.bit_generator.state, (seed, count)

    @pytest.mark.parametrize("region", [1, 2, 3, 4])
    @pytest.mark.parametrize("nu", REFERENCE_NUS)
    def test_constants(self, nu, region):
        for seed, samples in ((1, 7), (42, 60)):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            rep = verify_symbol_bounds(nu, region, samples, fast)
            constants, doubled, found = per_time_symbol_constants(nu, region, samples, slow)
            assert rep.empty == (constants is None)
            assert rep.found == found
            if constants is not None:
                assert rep.constants == constants and rep.constants_doubled == doubled
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_gauss_panels_match_one_panel_at_a_time(self):
        edges = [0.0, 0.005, 0.1, 1.0, 8.0]
        x, w = np.polynomial.legendre.leggauss(12)
        nodes = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b)
                                for a, b in zip(edges[:-1], edges[1:])])
        weights = np.concatenate([np.full(12, 0.5 * (b - a)) * w
                                  for a, b in zip(edges[:-1], edges[1:])])
        got = _gauss_panels(edges, 12)
        assert got[0].tobytes() == nodes.tobytes() and got[1].tobytes() == weights.tobytes()


class TestKernelIntegral:
    def test_value_at_zero_matches_closed_form(self):
        """K(0) = int_pi^inf pi/(2 eta^3) deta = 1/(4 pi)."""
        exact = 1.0 / (4.0 * math.pi)
        assert kernel_decay_integral(0.0) == pytest.approx(exact, rel=1e-7)

    def test_polar_cross_check(self):
        for t in (0.0, 1.0, 100.0, 1e4):
            a = kernel_decay_integral(t)
            b = kernel_decay_integral_polar(t)
            assert abs(a - b) <= 1e-6 * a

    def test_strictly_decreasing(self):
        ts = np.logspace(-1, 5, 25)
        vals = [kernel_decay_integral(t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_log_log_slope_is_minus_half(self):
        from stripflow.diagnostics import DecayCurve

        ts = np.logspace(2, 6, 33)
        vals = np.array([kernel_decay_integral(t) for t in ts])
        fit = fit_rate(DecayCurve(ts, vals, "kernel"), (1e2, 1e6))
        assert fit.exponent == pytest.approx(-0.5, abs=0.05)

    def test_sqrt_t_compensated_ratio(self):
        ts = np.logspace(2, 6, 33)
        vals = np.array([kernel_decay_integral(t) for t in ts])
        scaled = vals * np.sqrt(ts)
        assert scaled.max() / scaled.min() <= 3.0


class TestContinuumDecay:
    def test_rejects_linf_norm(self):
        profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=1.0),))
        with pytest.raises(ValueError, match="l1hat surrogate"):
            continuum_linear_decay(profile, 1.0, [("theta", NormId.linf())], [1.0, 2.0])

    def test_quadrature_refinement_converges(self):
        """Doubling panel nodes moves every value by < 1e-6 relative."""
        profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=1.0),))
        norms = [("theta", NormId.sobolev(4)), ("omega", NormId.l2hat())]
        times = np.logspace(1, 3, 7)
        coarse = continuum_linear_decay(profile, 1.0, norms, times,
                                        QuadratureSpec(xi_points=48))
        fine = continuum_linear_decay(profile, 1.0, norms, times,
                                      QuadratureSpec(xi_points=96))
        for c, f in zip(coarse, fine):
            assert np.abs(c.values - f.values).max() <= 1e-6 * f.values.max()

    def test_theta_h4_rate_on_transient_free_window(self):
        """H4 exponent -1/4 over a window past the spectral transient."""
        profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=1.0),))
        times = np.logspace(3, 6, 25)
        (curve,) = continuum_linear_decay(
            profile, 1.0, [("theta", NormId.sobolev(4))], times
        )
        fit = fit_rate(curve, (1e3, 1e6))
        assert fit.exponent == pytest.approx(-0.25, abs=0.02)
        assert fit.r_squared >= 0.999

    def test_exponent_ordering_across_ladder(self):
        """theta-H4 decays slowest, omega-L2 next, xi^2 theta fastest."""
        profile = InitialProfile(theta=(ProfileComponent(k=1, amplitude=1.0),))
        times = np.logspace(3, 6, 25)
        norms = [
            ("theta", NormId.sobolev(4)),
            ("omega", NormId.l2hat()),
            ("theta", NormId.l2hat(weight="xi2")),
        ]
        curves = continuum_linear_decay(profile, 1.0, norms, times)
        exps = [fit_rate(c, (1e3, 1e6)).exponent for c in curves]
        assert exps[0] > exps[1] > exps[2]
        assert exps[0] == pytest.approx(-0.25, abs=0.08)
        assert exps[1] == pytest.approx(-0.75, abs=0.08)
        assert exps[2] == pytest.approx(-1.25, abs=0.08)

    def test_omega_profile_contributes(self):
        """Initial vorticity feeds temperature through the off-diagonal term."""
        profile = InitialProfile(omega=(ProfileComponent(k=1, amplitude=1.0),))
        times = np.array([1.0, 5.0])
        (curve,) = continuum_linear_decay(
            profile, 0.1, [("theta", NormId.l2hat())], times
        )
        assert np.all(curve.values > 0)

    def test_matches_inline_pair_formulas(self):
        """The curves equal a direct evaluation of the exp(tA) entries
        written out per node, as the continuum code used to do it."""
        profile = InitialProfile(
            theta=(ProfileComponent(k=2, amplitude=1.0, xi_scale=0.5),),
            omega=(ProfileComponent(k=2, amplitude=0.3),),
        )
        norms = [("theta", NormId.l2hat()), ("omega", NormId.l1hat(weight="xi")),
                 ("theta", NormId.sobolev(2, weight="xi_kpi"))]
        times = np.array([0.5, 3.0, 40.0])
        for nu in (0.01, 1.0):
            curves = continuum_linear_decay(profile, nu, norms, times)
            xi, w_xi = QuadratureSpec().nodes()
            kpi = 2 * math.pi
            w = [norm_weight(nid, xi, kpi) for _, nid in norms]
            assert np.array_equal(w[1], np.abs(xi))
            assert np.allclose(w[2], np.abs(xi) * kpi * (1.0 + xi**2 + kpi**2),
                               rtol=1e-15, atol=0.0)
            theta0 = profile.theta[0].envelope(xi)
            omega0 = profile.omega[0].envelope(xi)
            p, sigma, lam_p, lam_m = sigma_lambda(xi, 2, nu)
            for it, t in enumerate(times):
                l1, l2 = pair_values(nu * p, sigma, t, lam=(lam_p, lam_m))
                th = np.abs((l1 + 0.5 * nu * p * l2) * theta0 + (1j * xi / p) * l2 * omega0)
                om = np.abs((l1 - 0.5 * nu * p * l2) * omega0 + 1j * xi * l2 * theta0)
                want_th = math.sqrt(2.0 * float(np.sum(w_xi * (w[0] * th) ** 2)))
                want_om = 2.0 * float(np.sum(w_xi * w[1] * om))
                want_h2 = math.sqrt(2.0 * float(np.sum(w_xi * (w[2] * th) ** 2)))
                assert curves[0].values[it] == pytest.approx(want_th, rel=1e-14)
                assert curves[1].values[it] == pytest.approx(want_om, rel=1e-14)
                assert curves[2].values[it] == pytest.approx(want_h2, rel=1e-14)

    def test_ladder_table_is_consistent(self):
        labels = {(field, nid.label) for field, nid, _ in CONTINUUM_LADDER}
        assert len(labels) == len(CONTINUUM_LADDER)


class TestHonestyWindow:
    def test_formula(self):
        grid = StripGrid(half_width_lx=200.0 * math.pi, nx=1024, ny=32, nu=1.0)
        assert truncation_honesty_tmax(grid) == pytest.approx(0.1 * 200.0**2)
