"""Per-mode propagators: symbols, regions, closed forms vs ODE oracles."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from stripflow import oracles
from stripflow.errors import GridMismatchError
from stripflow.fields import Parity, SpectralField, random_field, xi_values
from stripflow.oracles import (
    STIFF_HORIZON,
    damped_wave_reference,
    pair_reference,
    relative_gap,
)
from stripflow.propagators import (
    classify_region,
    pair_derivatives,
    pair_exponential,
    pair_matrix,
    pair_step_matrix,
    pair_values,
    propagate_linear_pair,
    sigma_lambda,
)

from conftest import damped_wave, duhamel_pair

NU_STAR = math.sqrt(16.0 / (27.0 * math.pi**4))


def region_by_text(xi, k, nu):
    """Independent re-evaluation of the four printed set-membership tests."""
    p = xi * xi + math.pi**2 * k * k
    x = xi * xi
    if x < nu * nu / 16.0 * p**3:
        return "I1"
    if nu * nu / 16.0 * p**3 <= x < nu * nu / 4.0 * p**3:
        return "I2"
    if nu * nu / 4.0 * p**3 <= x < 4.0 * nu * nu * p**3:
        return "I3"
    assert x >= 4.0 * nu * nu * p**3
    return "I4"


def region_tag(xi, k, nu):
    return f"I{int(classify_region(xi, k, nu))}"


def mode_values(xi, k, nu, t):
    """(l1, l2) of one mode (xi, k) at time(s) t."""
    p, sigma, lam_p, lam_m = sigma_lambda(xi, k, nu)
    return pair_values(nu * p, sigma, t, (lam_p, lam_m))


class TestModeSymbol:
    """sigma, lambda_pm and region tags of single modes."""

    def test_xi_zero_k_one(self):
        _, sigma, lam_p, lam_m = sigma_lambda(0.0, 1, 1.0)
        assert complex(sigma) == pytest.approx(math.pi**2)
        assert complex(lam_p) == pytest.approx(0.0)
        assert complex(lam_m) == pytest.approx(-math.pi**2)
        assert region_tag(0.0, 1, 1.0) == "I1"

    def test_sigma_real_above_critical_viscosity(self, rng):
        """Grid scan: nu >= nu* implies a real discriminant everywhere."""
        xi = rng.uniform(-100.0, 100.0, 10_000)
        k = rng.integers(1, 65, 10_000)
        for nu in (NU_STAR, 2 * NU_STAR, 1.0):
            _, sigma, _, _ = sigma_lambda(xi, k, nu)
            assert np.abs(sigma.imag).max() <= 1e-9 * np.abs(sigma).max()

    def test_region_matches_inequality_text(self, rng):
        for _ in range(400):
            xi = float(rng.uniform(-60, 60))
            k = int(rng.integers(1, 33))
            nu = float(rng.choice([0.01, 0.05, NU_STAR, 1.0]))
            assert region_tag(xi, k, nu) == region_by_text(xi, k, nu)

    def test_specific_low_viscosity_mode(self):
        assert region_tag(2.0, 1, 0.01) == region_by_text(2.0, 1, 0.01)

    def test_vieta_identities(self, rng):
        """lambda+ + lambda- = -nu p and lambda+ lambda- = xi^2/p."""
        xi = rng.uniform(-50, 50, 2000)
        k = rng.integers(1, 33, 2000)
        for nu in (0.01, NU_STAR, 1.0):
            p, _, lp, lm = sigma_lambda(xi, k, nu)
            assert np.abs(lp + lm + nu * p).max() <= 1e-12 * np.abs(nu * p).max()
            prod = lp * lm
            target = xi**2 / p
            assert np.abs(prod - target).max() <= 1e-12 * max(target.max(), 1.0)

    def test_real_parts_nonpositive(self, rng):
        xi = rng.uniform(-50, 50, 2000)
        k = rng.integers(1, 33, 2000)
        for nu in (0.01, 1.0):
            _, _, lp, lm = sigma_lambda(xi, k, nu)
            assert lp.real.max() <= 1e-13
            assert lm.real.max() <= 1e-13
            nonzero = np.abs(xi) > 1e-12
            assert lp.real[nonzero].max() < 0
            assert lm.real[nonzero].max() < 0

    def test_partition_exclusive_exhaustive(self, rng):
        xi = rng.uniform(-80, 80, 5000)
        k = rng.integers(1, 65, 5000)
        for nu in (0.005, 0.05, 1.0):
            tags = classify_region(xi, k, nu)
            assert set(np.unique(tags)).issubset({1, 2, 3, 4})

    def test_regions_2_to_4_empty_for_large_nu(self, rng):
        """I2..I4 require nu <= 2 nu*; at nu = 1 everything is I1."""
        xi = rng.uniform(-100, 100, 20_000)
        k = rng.integers(1, 65, 20_000)
        assert np.all(classify_region(xi, k, 1.0) == 1)


class TestPropagatorPair:
    """The solution operators l1, l2 from pair_values."""

    def test_identity_at_t_zero(self):
        l1, l2 = mode_values(3.0, 2, 0.02, 0.0)
        assert l1 == 1.0
        assert l2 == 0.0

    def test_sigma_zero_limit(self):
        """At sigma = 0 exactly, l2 = t e^{-nu p t / 2}."""
        # place sigma = 0: nu^2 p^3 = 4 xi^2 at k = 1
        k = 1
        xi = 1.0
        p = xi**2 + math.pi**2
        nu = 2.0 * xi / p**1.5
        lam = np.array([-0.5 * nu * p])
        l1, l2 = pair_values(np.array([nu * p]), np.array([0.0j]), 2.5, (lam, lam))
        assert l2[0] == pytest.approx(2.5 * math.exp(-0.5 * nu * p * 2.5), rel=1e-14)
        assert l1[0] == pytest.approx(math.exp(-0.5 * nu * p * 2.5), rel=1e-14)

    def test_sinhc_branch_against_mpmath(self):
        """Taylor branch at sigma t ~ 1e-6 vs 50-digit direct difference."""
        mpmath.mp.dps = 50
        k, nu = 1, 0.05
        xi = 1.0
        _, sigma, lam_p, lam_m = (complex(a) for a in sigma_lambda(xi, k, nu))
        # choose t so |sigma t / 2| ~ 1e-6, inside the Taylor branch
        t = 2.0e-6 / abs(sigma)
        _, l2 = mode_values(xi, k, nu, t)
        lp = mpmath.mpc(lam_p)
        lm = mpmath.mpc(lam_m)
        sig = mpmath.mpc(sigma)
        l2_exact = (mpmath.exp(lp * t) - mpmath.exp(lm * t)) / sig
        assert abs(complex(l2) - complex(l2_exact)) <= 1e-10 * abs(complex(l2_exact))

    def test_monotone_l1_for_real_sigma(self):
        """|l1| decreases in t wherever the discriminant is real."""
        ts = np.linspace(0.0, 20.0, 400)
        for xi, k, nu in [(0.5, 1, 1.0), (3.0, 2, 1.0), (0.05, 1, 0.02)]:
            _, sigma, _, _ = sigma_lambda(xi, k, nu)
            if abs(sigma.imag) > 0:
                continue
            vals = np.abs(mode_values(xi, k, nu, ts)[0])
            assert np.all(np.diff(vals) <= 1e-14)

    def test_l1_bounded_by_one_for_real_sigma(self, rng):
        for _ in range(200):
            xi = float(rng.uniform(-10, 10))
            k = int(rng.integers(1, 9))
            t = float(rng.uniform(0, 50))
            assert abs(complex(mode_values(xi, k, 1.0, t)[0])) <= 1.0 + 1e-14

    def test_no_overflow_for_stiff_modes(self):
        """Large nu p t used to overflow a naive cosh/sinhc evaluation."""
        l1, l2 = mode_values(0.1, 32, 1.0, 1000.0)
        assert np.isfinite(l1.real)
        assert np.isfinite(l2.real)

    def test_derivative_identities_against_finite_differences(self):
        h = 1e-6
        for xi, k, nu in [(2.0, 1, 0.01), (0.3, 1, 1.0), (7.0, 3, 0.05)]:
            p, sigma, lam_p, lam_m = sigma_lambda(np.array([xi]), k, nu)
            lam = (lam_p, lam_m)
            t = 1.7
            l1, l2 = pair_values(nu * p, sigma, t, lam)
            d1, d2 = pair_derivatives(nu * p, t, lam, (l1, l2))
            l1p, l2p = pair_values(nu * p, sigma, t + h, lam)
            l1m, l2m = pair_values(nu * p, sigma, t - h, lam)
            assert abs(d1[0] - (l1p[0] - l1m[0]) / (2 * h)) < 1e-7
            assert abs(d2[0] - (l2p[0] - l2m[0]) / (2 * h)) < 1e-7


class TestOdeOracle:
    def test_pair_matches_adaptive_integration(self, rng):
        """Closed form vs the adaptive reference on random modes."""
        times = np.array([0.1, 1.0, 10.0, 100.0])
        for _ in range(40):
            xi = float(rng.uniform(-50, 50))
            k = int(rng.integers(1, 33))
            nu = float(rng.choice([0.01, NU_STAR, 1.0]))
            y0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ref = pair_reference(xi, k, nu, y0, times)
            p, sigma, lam_p, lam_m = sigma_lambda(np.array([xi]), k, nu)
            closed = np.empty_like(ref)
            for i, t in enumerate(times):
                l1, l2 = pair_values(nu * p, sigma, t, (lam_p, lam_m))
                m = np.array([
                    [l1[0] - 0.5 * nu * p[0] * l2[0], 1j * xi * l2[0]],
                    [1j * xi / p[0] * l2[0], l1[0] + 0.5 * nu * p[0] * l2[0]],
                ])
                closed[i] = m @ y0
            scale0 = float(np.linalg.norm(y0))
            per_row = [relative_gap(closed[i], ref[i], scale0) for i in range(len(times))]
            stacked = relative_gap(closed, ref, scale0)
            assert stacked.shape == (len(times),)
            assert np.array_equal(stacked, per_row)
            assert stacked.max() < 1e-8

    # The seed-303 oracle-suite mode (weakly damped, oscillatory: BDF alone
    # missed it by 1.1e-8 at t = 100) and a stiff mode that stays on BDF.
    @pytest.mark.parametrize("xi, k, nu, y0", [
        (-4.799481934481207, 1, 0.01,
         (1.0280186085912106 + 0.2109229219160836j, 0.8910747658135635 + 0.01742453629957956j)),
        (-48.5, 13, 1.0, (0.3 - 0.2j, 1.1 + 0.4j)),
    ])
    def test_pair_reference_against_matrix_expm(self, xi, k, nu, y0):
        """The reference itself, per eval time, against a 50-digit expm."""
        mpmath.mp.dps = 50
        times = np.array([0.1, 1.0, 10.0, 100.0])
        ref = pair_reference(xi, k, nu, y0, times)
        pm = mpmath.mpf(xi) ** 2 + (mpmath.pi * k) ** 2
        a = mpmath.matrix([[-mpmath.mpf(nu) * pm, 1j * mpmath.mpf(xi)],
                           [1j * mpmath.mpf(xi) / pm, 0]])
        y = mpmath.matrix([mpmath.mpc(c) for c in y0])
        scale0 = float(np.linalg.norm(y0))
        for i, t in enumerate(times):
            exact = mpmath.expm(a * t) * y
            want = [complex(exact[0]), complex(exact[1])]
            assert relative_gap(ref[i], want, scale0) < 1e-10, t

    def test_batch_classes_do_not_touch_each_other(self, rng):
        """Adams and BDF rows of a mixed batch, bit for bit as in batches of their own."""
        times = np.array([0.1, 1.0, 10.0, 100.0])
        # weakly damped k = 1 modes stay on Adams, nu = 1 modes go to BDF
        xi = np.concatenate([rng.uniform(-5.0, 5.0, 6), rng.uniform(-50.0, 50.0, 6)])
        k = np.concatenate([np.ones(6, dtype=int), rng.integers(1, 33, 6)])
        nu = np.repeat([0.01, 1.0], 6)
        y0 = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        order = rng.permutation(12)
        xi, k, nu, y0 = xi[order], k[order], nu[order], y0[order]
        p = xi * xi + (math.pi * k) ** 2
        stiff = nu * p * times.max() >= STIFF_HORIZON
        assert stiff.sum() == 6
        mixed = pair_reference(xi, k, nu, y0, times)
        for rows in (stiff, ~stiff):
            alone = pair_reference(xi[rows], k[rows], nu[rows], y0[rows], times)
            assert mixed[rows].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("system", ["pair", "damped-wave"])
    def test_batch_against_expm_per_mode(self, system, rng):
        """One batch, each mode against scipy's expm of its own 2x2 matrix.

        Includes the weakly damped nu = 0.01 mode of the expm test above
        (t = 100 is where BDF missed it) and a stiff nu = 1, k = 32 mode.
        """
        times = np.array([0.1, 1.0, 10.0, 100.0])
        xi = np.concatenate([[-4.799481934481207, -48.5], rng.uniform(-50.0, 50.0, 10)])
        k = np.concatenate([[1, 32], rng.integers(1, 33, 10)])
        nu = np.concatenate([[0.01, 1.0], rng.choice([0.01, NU_STAR, 1.0], 10)])
        y0 = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        p = xi * xi + (math.pi * k) ** 2
        if system == "pair":
            ref = pair_reference(xi, k, nu, y0, times)
            a = [[[-v * q, 1j * x], [1j * x / q, 0.0]] for x, q, v in zip(xi, p, nu)]
        else:
            ref = damped_wave_reference(xi, k, nu, y0[:, 0], y0[:, 1], times)
            a = [[[0.0, 1.0], [-x * x / q, -v * q]] for x, q, v in zip(xi, p, nu)]
        assert ref.shape == (12, len(times), 2)
        for row, a_row in enumerate(np.array(a, dtype=complex)):
            scale0 = float(np.linalg.norm(y0[row]))
            for i, t in enumerate(times):
                want = scipy.linalg.expm(a_row * t) @ y0[row]
                assert relative_gap(ref[row, i], want, scale0) < 1e-9, (row, t)

    def test_scalar_call_is_a_batch_of_one(self):
        times = [0.0, 0.5, 2.0]
        ref = pair_reference(1.5, 2, 0.1, (1.0, 1j), times)
        assert ref.shape == (len(times), 2)
        batch = pair_reference(np.array([1.5]), np.array([2]), np.array([0.1]),
                               np.array([[1.0, 1j]]), times)
        assert batch.shape == (1, len(times), 2)
        assert batch[0].tobytes() == ref.tobytes()
        assert damped_wave_reference(1.5, 2, 0.1, 1.0, 1j, times).shape == (len(times), 2)

    def test_failure_names_method_batch_and_return_code(self, monkeypatch):
        """A tolerance zvode refuses (as a huge batch's scaled one would be)."""
        monkeypatch.setattr(oracles, "_ADAMS", dict(oracles._ADAMS, rtol=1e-20, atol=1e-30))
        with pytest.warns(UserWarning), pytest.raises(
                RuntimeError, match=r"t=1\.0: adams on 2 modes .* return code -3"):
            pair_reference(np.array([1.0, 2.0]), 1, 0.01, np.ones((2, 2)), [1.0])

    def test_damped_wave_matches_adaptive_integration(self, rng):
        times = np.array([0.1, 1.0, 10.0])
        for _ in range(25):
            xi = float(rng.uniform(-20, 20))
            k = int(rng.integers(1, 9))
            nu = float(rng.choice([0.01, 1.0]))
            phi0 = complex(rng.standard_normal(), rng.standard_normal())
            phi1 = complex(rng.standard_normal(), rng.standard_normal())
            ref = damped_wave_reference(xi, k, nu, phi0, phi1, times)
            p, sigma, lam_p, lam_m = sigma_lambda(np.array([xi]), k, nu)
            for i, t in enumerate(times):
                l1, l2 = pair_values(nu * p, sigma, t, (lam_p, lam_m))
                phi = l1[0] * phi0 + l2[0] * (0.5 * nu * p[0] * phi0 + phi1)
                scale = math.hypot(abs(phi0), abs(phi1))
                assert relative_gap([phi], [ref[i, 0]], scale) < 1e-8


class TestSigmaDegeneracy:
    def test_pair_continuous_across_sigma_zero(self):
        """Fine xi-sweep through the I2/I3 boundary shows no jump."""
        nu, k, t = 0.01, 1, 0.1
        xi = np.arange(0.10, 0.20, 1e-6)
        p, sigma, lam_p, lam_m = sigma_lambda(xi, k, nu)
        radicand = (nu * p) ** 2 - 4 * xi**2 / p
        assert radicand.min() < 0 < radicand.max()  # the sweep crosses sigma = 0
        l1, l2 = pair_values(nu * p, sigma, t, lam=(lam_p, lam_m))
        assert np.abs(np.diff(l2)).max() <= 1e-9
        assert np.abs(np.diff(l1)).max() <= 1e-9


class TestPropagatePhi:
    """The damped-wave route that duhamel_pair builds on."""

    def test_xi_zero_column_is_frozen(self, small_grid, rng):
        """No horizontal coupling at xi = 0: phi is constant in time."""
        k = np.arange(1, small_grid.ny + 1)
        phi0 = rng.standard_normal(small_grid.ny)
        out = damped_wave(0.0, k, small_grid.nu, phi0, 0.0, 12.0)
        assert np.abs(out - phi0).max() < 1e-13

    def test_t_zero_returns_initial_data(self, medium_grid, rng):
        phi0 = random_field(medium_grid, Parity.ODD, rng).coeff
        phi1 = random_field(medium_grid, Parity.ODD, rng).coeff
        xi = xi_values(medium_grid)[:, None]
        k = np.arange(1, medium_grid.ny + 1)[None, :]
        out = damped_wave(xi, k, medium_grid.nu, phi0, phi1, 0.0)
        assert np.abs(out - phi0).max() < 1e-14 * np.abs(phi0).max()

    def test_against_ode_oracle_single_mode(self, small_grid):
        row, k = 2, 2
        phi0, phi1 = 0.8 - 0.3j, -0.1 + 0.6j
        xi = float(xi_values(small_grid)[row])
        t = 5.0
        out = damped_wave(xi, k, small_grid.nu, phi0, phi1, t)
        ref = damped_wave_reference(xi, k, small_grid.nu, phi0, phi1, np.array([t]))
        assert relative_gap([out], [ref[0, 0]], 1.0) < 1e-8


class TestPropagateLinearPair:
    def test_xi_zero_column_decouples(self, small_grid, rng):
        omega0 = SpectralField.zeros(small_grid, Parity.ODD)
        theta0 = SpectralField.zeros(small_grid, Parity.ODD)
        omega0.coeff[0, :] = rng.standard_normal(small_grid.ny)
        theta0.coeff[0, :] = rng.standard_normal(small_grid.ny)
        t = 3.0
        out = propagate_linear_pair(omega0, theta0, t)
        k = np.arange(1, small_grid.ny + 1)
        decay = np.exp(-small_grid.nu * (math.pi * k) ** 2 * t)
        assert np.abs(out.omega.coeff[0] - decay * omega0.coeff[0]).max() < 1e-13
        assert np.abs(out.theta.coeff[0] - theta0.coeff[0]).max() == 0.0

    def test_cross_route_through_phi_and_duhamel(self, small_grid):
        """theta via the damped-wave solution, omega via trapezoid Duhamel."""
        grid = small_grid
        omega0 = SpectralField.zeros(grid, Parity.ODD)
        theta0 = SpectralField.zeros(grid, Parity.ODD)
        row, col = 2, 0
        omega0.coeff[row, col] = 0.7 + 0.2j
        theta0.coeff[row, col] = -0.4 + 0.9j
        xi = float(xi_values(grid)[row])
        t_end = 4.0

        pair = propagate_linear_pair(omega0, theta0, t_end)
        w, th = duhamel_pair(
            xi, col + 1, grid.nu, omega0.coeff[row, col], theta0.coeff[row, col], t_end
        )
        assert abs(pair.theta.coeff[row, col] - th) < 1e-6
        assert abs(pair.omega.coeff[row, col] - w) < 1e-6

    def test_rejects_mismatched_initial_grids(self, small_grid, medium_grid):
        omega0 = SpectralField.zeros(small_grid, Parity.ODD)
        theta0 = SpectralField.zeros(medium_grid, Parity.ODD)
        with pytest.raises(GridMismatchError):
            propagate_linear_pair(omega0, theta0, 1.0)

    def test_against_pair_ode_oracle(self, small_grid, rng):
        omega0 = random_field(small_grid, Parity.ODD, rng)
        theta0 = random_field(small_grid, Parity.ODD, rng)
        t = 2.0
        out = propagate_linear_pair(omega0, theta0, t)
        xi = xi_values(small_grid)
        for row, col in [(1, 0), (3, 2), (6, 1)]:
            y0 = np.array([omega0.coeff[row, col], theta0.coeff[row, col]])
            ref = pair_reference(float(xi[row]), col + 1, small_grid.nu, y0, [t])
            got = np.array([out.omega.coeff[row, col], out.theta.coeff[row, col]])
            assert relative_gap(got, ref[0], float(np.linalg.norm(y0))) < 1e-8

    def test_matrix_consistency_at_all_times(self, medium_grid, rng):
        """Pair propagation over t1 then t2 equals one step of t1 + t2."""
        omega0 = random_field(medium_grid, Parity.ODD, rng)
        theta0 = random_field(medium_grid, Parity.ODD, rng)
        s1 = propagate_linear_pair(omega0, theta0, 0.7)
        s2 = propagate_linear_pair(s1.omega, s1.theta, 1.1)
        direct = propagate_linear_pair(omega0, theta0, 1.8)
        scale = max(np.abs(direct.theta.coeff).max(), 1e-30)
        assert np.abs(s2.theta.coeff - direct.theta.coeff).max() < 1e-12 * scale
        assert np.abs(s2.omega.coeff - direct.omega.coeff).max() < 1e-12 * scale

    def test_step_matrix_cache_read_only(self, small_grid):
        m11, _, _, _ = pair_step_matrix(small_grid, 0.25)
        with pytest.raises(ValueError):
            m11[0, 0] = 0.0

    @staticmethod
    def _data_on_rows(grid, rng, rows, fields):
        """Random Hermitian data kept on the sine-row columns ``rows`` only."""
        empty = np.ones(grid.ny, dtype=bool)
        empty[list(rows)] = False
        out = []
        for name in ("omega", "theta"):
            f = random_field(grid, Parity.ODD, rng)
            f.coeff[:, empty] = 0.0
            if name not in fields:
                f.coeff[:] = 0.0
            out.append(f)
        return out

    @pytest.mark.parametrize("fields", [("omega", "theta"), ("omega",), ("theta",)])
    @pytest.mark.parametrize("rows", [(0,), (4,), (6,), (1, 3), tuple(range(7))])
    def test_occupied_rows_equal_dense_product(self, medium_grid, rng, rows, fields):
        """Evaluating only the occupied rows changes no bit of the output."""
        omega0, theta0 = self._data_on_rows(medium_grid, rng, rows, fields)
        for t in (0.0, 0.3, 5.0, 250.0):
            m11, m12, m21, m22 = pair_matrix(medium_grid, t)
            out = propagate_linear_pair(omega0, theta0, t)
            assert np.array_equal(out.omega.coeff, m11 * omega0.coeff + m12 * theta0.coeff)
            assert np.array_equal(out.theta.coeff, m21 * omega0.coeff + m22 * theta0.coeff)

    def test_zero_data_stay_zero(self, medium_grid):
        zero = SpectralField.zeros(medium_grid, Parity.ODD)
        out = propagate_linear_pair(zero, zero, 2.0)
        assert not out.omega.coeff.any()
        assert not out.theta.coeff.any()

    def test_nan_in_an_empty_row_is_not_skipped(self, medium_grid, rng):
        """A blow-up in a row with no other data still reaches the output."""
        omega0, theta0 = self._data_on_rows(medium_grid, rng, (0,), ("theta",))
        omega0.coeff[5, 3] = np.nan
        out = propagate_linear_pair(omega0, theta0, 1.5)
        for f in (out.omega, out.theta):
            assert not np.isfinite(f.coeff[:, 3]).all()
            assert np.isfinite(f.coeff[:, [0, 1, 2, 4, 5, 6, 7]]).all()


class TestPairExponential:
    CASES = [(0.0, 1, 1.0, 2.0), (0.37, 1, 0.01, 10.0), (-4.799, 1, 0.01, 100.0),
             (12.5, 7, NU_STAR, 0.1), (-50.0, 32, 1.0, 1.0)]

    @pytest.mark.parametrize("xi, k, nu, t", CASES)
    def test_matches_former_inline_entries(self, xi, k, nu, t):
        """The kernel reproduces the entries the analysis and oracle code
        used to build inline, bit for bit, plus the xi = 0 override."""
        xi_arr = np.array([xi])
        p, sigma, lam_p, lam_m = sigma_lambda(xi_arr, k, nu)
        l1, l2 = pair_values(nu * p, sigma, t, lam=(lam_p, lam_m))
        inline = (l1 - 0.5 * nu * p * l2, 1j * xi_arr * l2,
                  (1j * xi_arr / p) * l2, l1 + 0.5 * nu * p * l2)
        got = pair_exponential(xi_arr, p, sigma, (lam_p, lam_m), nu, t)
        if xi == 0.0:
            inline = (np.exp(-nu * p * t), 0.0, 0.0, 1.0)
        for g, want in zip(got, inline):
            assert np.array_equal(g, np.broadcast_to(want, g.shape))

    def test_array_nu_matches_one_call_per_mode(self):
        """nu may vary per mode; the xi = 0 override indexes it like p."""
        xi = np.array([0.0, 0.37, -4.799, 12.5, 0.0, -50.0])
        k = np.array([1, 1, 1, 7, 3, 32])
        nu = np.array([1.0, 0.01, 0.01, NU_STAR, 0.01, 1.0])
        p, sigma, lam_p, lam_m = sigma_lambda(xi, k, nu)
        got = pair_exponential(xi, p, sigma, (lam_p, lam_m), nu, 2.0)
        for j in range(len(xi)):
            one = sigma_lambda(xi[j:j + 1], k[j], nu[j])
            want = pair_exponential(xi[j:j + 1], one[0], one[1], one[2:], nu[j], 2.0)
            for g, w in zip(got, want):
                assert g[j] == pytest.approx(w[0], rel=1e-14, abs=1e-300)

    def test_exponential_agrees_with_matrix_expm(self):
        """exp(tA) by the kernel against a 50-digit matrix exponential."""
        mpmath.mp.dps = 50
        for xi, k, nu, t in self.CASES[1:]:
            xi_arr = np.array([xi])
            p, sigma, lam_p, lam_m = sigma_lambda(xi_arr, k, nu)
            got = pair_exponential(xi_arr, p, sigma, (lam_p, lam_m), nu, t)
            pm = mpmath.mpf(xi) ** 2 + (mpmath.pi * k) ** 2
            a = mpmath.matrix([[-nu * pm, 1j * mpmath.mpf(xi)], [1j * mpmath.mpf(xi) / pm, 0]])
            ref = mpmath.expm(a * t)
            want = [complex(ref[0, 0]), complex(ref[0, 1]), complex(ref[1, 0]), complex(ref[1, 1])]
            scale = max(abs(w) for w in want)
            for g, w in zip(got, want):
                assert abs(complex(g[0]) - w) <= 1e-12 * scale
