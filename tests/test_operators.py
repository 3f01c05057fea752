"""Differential operators, Poisson inversion, velocity reconstruction."""

import math

import numpy as np
import pytest

from stripflow.errors import ParityError
from stripflow.fields import Parity, SpectralField, random_field, xi_index, xi_values
from stripflow.operators import (
    derivative_x,
    derivative_y,
    neg_laplacian,
    poisson_inverse,
    velocity_from_vorticity,
    vorticity_from_velocity,
)
from stripflow.transforms import to_physical


class TestDerivativeX:
    def test_constant_in_x_maps_to_zero(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        f.coeff[0, :] = 1.0  # j = 0 column only
        assert np.all(derivative_x(f).coeff == 0.0)

    def test_single_mode_scaled_by_i_xi(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        f.coeff[3, 1] = 2.0 - 1.0j
        out = derivative_x(f)
        xi = xi_values(small_grid)[3]
        assert out.coeff[3, 1] == pytest.approx(1j * xi * (2.0 - 1.0j))

    def test_twice_equals_negative_xi_squared(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        twice = derivative_x(derivative_x(f)).coeff
        direct = -(xi_values(medium_grid)[:, None] ** 2) * f.coeff
        scale = np.abs(direct).max()
        assert np.abs(twice - direct).max() < 1e-14 * max(scale, 1.0)


class TestDerivativeY:
    def test_sin_pi_y_to_pi_cos_pi_y(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        f.coeff[0, 0] = 1.0  # sin(pi y)
        out = derivative_y(f)
        assert out.parity is Parity.EVEN
        assert out.coeff[0, 1] == pytest.approx(math.pi)
        rest = out.coeff.copy()
        rest[0, 1] = 0.0
        assert np.all(rest == 0.0)

    def test_cos_pi_y_to_minus_pi_sin_pi_y(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.EVEN)
        f.coeff[0, 1] = 1.0  # cos(pi y)
        out = derivative_y(f)
        assert out.parity is Parity.ODD
        assert out.coeff[0, 0] == pytest.approx(-math.pi)

    def test_twice_on_odd_equals_minus_k_pi_squared(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        twice = derivative_y(derivative_y(f))
        assert twice.parity is Parity.ODD
        k = np.arange(1, medium_grid.ny + 1)
        direct = -((math.pi * k[None, :]) ** 2) * f.coeff
        scale = max(np.abs(direct).max(), 1.0)
        assert np.abs(twice.coeff - direct).max() < 1e-14 * scale


class TestPoissonInverse:
    def test_sin_pi_y_scaled_by_pi_squared(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        f.coeff[0, 0] = 1.0
        out = poisson_inverse(f)
        assert out.coeff[0, 0] == pytest.approx(1.0 / math.pi**2)

    def test_single_mode_symbol(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        f.coeff[5, 2] = 1.0 + 1.0j
        out = poisson_inverse(f)
        xi0 = xi_values(small_grid)[5]
        expected = (1.0 + 1.0j) / (xi0**2 + (3 * math.pi) ** 2)
        assert out.coeff[5, 2] == pytest.approx(expected)

    def test_residual_of_inverse(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        residual = neg_laplacian(poisson_inverse(f)).coeff - f.coeff
        assert np.abs(residual).max() < 1e-13 * np.abs(f.coeff).max()

    def test_rejects_even_parity(self, small_grid, rng):
        f = random_field(small_grid, Parity.EVEN, rng)
        with pytest.raises(ParityError):
            poisson_inverse(f)

    def test_operator_norm_bounded_by_inv_pi_squared(self, medium_grid, rng):
        """Witness of the elliptic bound with its explicit constant."""
        worst = 0.0
        for _ in range(50):
            f = random_field(medium_grid, Parity.ODD, rng)
            out = poisson_inverse(f)
            ratio = math.sqrt(
                float(np.sum(np.abs(out.coeff) ** 2)) / float(np.sum(np.abs(f.coeff) ** 2))
            )
            worst = max(worst, ratio)
        assert worst <= 1.0 / math.pi**2 + 1e-12


class TestVelocityFromVorticity:
    def test_sin_pi_y_gives_cos_over_pi_and_zero_u2(self, small_grid):
        omega = SpectralField.zeros(small_grid, Parity.ODD)
        omega.coeff[0, 0] = 1.0
        u1, u2 = velocity_from_vorticity(omega)
        # k pi / (pi^2 k^2) = 1/pi at k=1, xi=0
        assert u1.coeff[0, 1] == pytest.approx(1.0 / math.pi)
        assert np.all(u2.coeff == 0.0)

    def test_u2_walls_are_exactly_zero(self, medium_grid, rng):
        omega = random_field(medium_grid, Parity.ODD, rng)
        _, u2 = velocity_from_vorticity(omega)
        values = to_physical(u2).values
        assert np.all(values[:, 0] == 0.0)
        assert np.all(values[:, -1] == 0.0)

    def test_divergence_free_and_curl_recovers(self, medium_grid, rng):
        omega = random_field(medium_grid, Parity.ODD, rng)
        u1, u2 = velocity_from_vorticity(omega)
        scale = np.abs(omega.coeff).max()

        div = derivative_x(u1) + derivative_y(u2)
        assert np.abs(div.coeff).max() < 1e-13 * scale

        curl = vorticity_from_velocity(u1, u2)
        assert np.abs(curl.coeff - omega.coeff).max() < 1e-13 * scale

    def test_rejects_even_parity(self, small_grid, rng):
        with pytest.raises(ParityError):
            velocity_from_vorticity(random_field(small_grid, Parity.EVEN, rng))

    def test_u1_has_no_mean_row(self, medium_grid, rng):
        omega = random_field(medium_grid, Parity.ODD, rng)
        u1, _ = velocity_from_vorticity(omega)
        assert np.all(u1.coeff[:, 0] == 0.0)


class TestOutArgument:
    """A caller's field receives exactly what the allocating form returns."""

    @staticmethod
    def junk(grid, parity):
        return SpectralField(grid, parity, np.full(grid.coeff_shape(parity), np.nan + 0j))

    @pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
    def test_derivatives(self, medium_grid, rng, parity):
        f = random_field(medium_grid, parity, rng)
        out = self.junk(medium_grid, parity)
        assert derivative_x(f, out=out) is out
        assert out.coeff.tobytes() == derivative_x(f).coeff.tobytes()
        out = self.junk(medium_grid, parity.flipped())
        assert derivative_y(f, out=out) is out
        assert out.coeff.tobytes() == derivative_y(f).coeff.tobytes()

    def test_derivative_x_in_place(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        want = derivative_x(f).coeff.tobytes()
        assert derivative_x(f, out=f).coeff.tobytes() == want

    def test_velocity(self, medium_grid, rng):
        omega = random_field(medium_grid, Parity.ODD, rng)
        out = (self.junk(medium_grid, Parity.EVEN), self.junk(medium_grid, Parity.ODD))
        u1, u2 = velocity_from_vorticity(omega, out=out)
        assert u1 is out[0] and u2 is out[1]
        v1, v2 = velocity_from_vorticity(omega)
        assert u1.coeff.tobytes() == v1.coeff.tobytes()
        assert u2.coeff.tobytes() == v2.coeff.tobytes()

    def test_out_of_the_wrong_parity_is_refused(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        with pytest.raises(ParityError):
            derivative_y(f, out=SpectralField.zeros(medium_grid, Parity.ODD))
        with pytest.raises(ParityError):
            velocity_from_vorticity(f, out=(SpectralField.zeros(medium_grid, Parity.ODD),) * 2)


class TestNyquistHandling:
    def test_xi_index_layout(self, small_grid):
        """The stored columns stop below the x-Nyquist column j = nx/2."""
        j = xi_index(small_grid)
        assert np.array_equal(j, np.arange(small_grid.nx // 2))
        assert len(j) == small_grid.coeff_shape(Parity.ODD)[0]
