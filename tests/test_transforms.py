"""Transforms: round trips, basis examples, Parseval, parity handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripflow.errors import ParityError
from stripflow.fields import (
    Parity,
    PhysicalField,
    SpectralField,
    StripGrid,
    column_multiplicity,
    random_field,
)
from stripflow.transforms import (
    pad_modes,
    physical_max,
    to_physical,
    to_spectral,
)

from conftest import direct_projection, direct_synthesis, quadrature_l2


class TestToPhysical:
    def test_single_mode_matches_direct_evaluation(self, small_grid):
        """One coefficient at (j0, k=1) evaluates to the analytic mode shape."""
        f = SpectralField.zeros(small_grid, Parity.ODD)
        f.coeff[2, 0] = 1.0 - 0.5j  # j = 2, with its conjugate at j = -2
        values = to_physical(f).values
        expected = direct_synthesis(f)
        assert np.abs(values - expected).max() < 1e-13

    def test_zero_coefficients_give_zero_field(self, small_grid):
        f = SpectralField.zeros(small_grid, Parity.ODD)
        assert np.all(to_physical(f).values == 0.0)

    def test_even_parity_matches_direct_evaluation(self, small_grid, rng):
        f = random_field(small_grid, Parity.EVEN, rng)
        values = to_physical(f).values
        expected = direct_synthesis(f)
        assert np.abs(values - expected).max() < 1e-12 * np.abs(expected).max()

    def test_odd_wall_rows_exactly_zero(self, medium_grid, rng):
        values = to_physical(random_field(medium_grid, Parity.ODD, rng)).values
        assert np.all(values[:, 0] == 0.0)
        assert np.all(values[:, -1] == 0.0)

    def test_round_trip_spectral_physical_spectral(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.ODD, rng)
        back = to_spectral(to_physical(f))
        err = np.abs(back.coeff - f.coeff).max() / np.abs(f.coeff).max()
        assert err < 1e-12


class TestRealTransformFold:
    """The half-spectrum synthesis against the direct double sum."""

    @pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
    def test_column_0_imag_and_nyquist_are_ignored(self, small_grid, rng, parity):
        """The half layout's own edge: a real field has a real j = 0
        column, whatever the lattice holds there; the lattice stops below
        the x-Nyquist column j = nx/2, which a real field does not have."""
        shape = small_grid.coeff_shape(parity)
        assert shape[0] == small_grid.nx // 2
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = SpectralField(small_grid, parity, coeff)
        values = to_physical(f).values
        assert np.abs(values - direct_synthesis(f)).max() < 1e-12 * np.abs(values).max()

        edge_free = coeff.copy()
        edge_free[0] = coeff[0].real
        same = to_physical(SpectralField(small_grid, parity, edge_free)).values
        assert same.tobytes() == values.tobytes()

    @pytest.mark.parametrize("ny", [1, 2])
    @pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
    def test_shallow_grids(self, rng, ny, parity):
        """At ny = 1 an Odd field has no visible sine row, so both transforms
        run on a zero-width axis and the Odd nodes come out exactly zero."""
        grid = StripGrid(half_width_lx=2.0 * math.pi, nx=8, ny=ny, nu=1.0)
        shape = grid.coeff_shape(parity)
        f = SpectralField(grid, parity, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
        values = to_physical(f).values
        expected = direct_synthesis(f)
        assert np.abs(values - expected).max() <= 1e-12 * max(np.abs(expected).max(), 1.0)
        if parity is Parity.ODD:
            assert np.all(values[:, 0] == 0.0) and np.all(values[:, -1] == 0.0)

        band = random_field(grid, parity, rng)
        back = to_spectral(to_physical(band))
        scale = max(np.abs(band.coeff).max(), 1.0)
        assert np.abs(back.coeff - band.coeff).max() < 1e-12 * scale

    @pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
    def test_ny_32_matches_the_direct_sums(self, rng, parity):
        """The row count the solver runs, both directions against the oracles."""
        grid = StripGrid(half_width_lx=5.0 * math.pi, nx=16, ny=32, nu=1.0)
        shape = grid.coeff_shape(parity)
        f = SpectralField(grid, parity, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
        values = to_physical(f).values
        expected = direct_synthesis(f)
        assert np.abs(values - expected).max() < 1e-12 * np.abs(expected).max()
        if parity is Parity.ODD:
            assert np.all(values[:, 0] == 0.0) and np.all(values[:, -1] == 0.0)

        nodal = rng.standard_normal((grid.nx, grid.ny + 1))
        if parity is Parity.ODD:
            nodal[:, 0] = nodal[:, -1] = 0.0
        coeff = to_spectral(PhysicalField(grid, parity, nodal)).coeff
        expected = direct_projection(grid, nodal, parity)
        assert np.abs(coeff - expected).max() < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
    def test_round_trip_of_data_that_is_not_band_limited(self, small_grid, rng, parity):
        """Random nodal data lose exactly their x-Nyquist part.

        The band-limited space omits only the alternating x column, so
        synthesis of to_spectral returns the data minus its projection on
        (-1)^m; the coefficients match the explicit quadrature sums.
        """
        values = rng.standard_normal((small_grid.nx, small_grid.ny + 1))
        if parity is Parity.ODD:
            values[:, 0] = values[:, -1] = 0.0
        f = to_spectral(PhysicalField(small_grid, parity, values))

        expected = direct_projection(small_grid, values, parity)
        assert np.abs(f.coeff - expected).max() < 1e-12 * np.abs(expected).max()

        alt = np.where(np.arange(small_grid.nx) % 2 == 0, 1.0, -1.0)
        nyquist_part = np.outer(alt, alt @ values / small_grid.nx)
        back = direct_synthesis(f)
        assert np.abs(back - (values - nyquist_part)).max() < 1e-12 * np.abs(values).max()


class TestToSpectral:
    def test_sin_pi_y_single_column(self, small_grid):
        """Physical sin(pi y), constant in x, maps to the (j=0, k=1) slot."""
        ys = small_grid.y_nodes()
        values = np.tile(np.sin(math.pi * ys), (small_grid.nx, 1))
        f = to_spectral(PhysicalField(small_grid, Parity.ODD, values))
        # expected coefficient: amplitude 1 -> Lx/sqrt(pi)
        expected = small_grid.half_width_lx / math.sqrt(math.pi)
        assert abs(f.coeff[0, 0] - expected) < 1e-12 * expected
        rest = f.coeff.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-13 * expected

    def test_cos_2pi_y_single_column(self, small_grid):
        ys = small_grid.y_nodes()
        values = np.tile(np.cos(2 * math.pi * ys), (small_grid.nx, 1))
        f = to_spectral(PhysicalField(small_grid, Parity.EVEN, values))
        expected = small_grid.half_width_lx / math.sqrt(math.pi)
        assert abs(f.coeff[0, 2] - expected) < 1e-12 * expected
        rest = f.coeff.copy()
        rest[0, 2] = 0.0
        assert np.abs(rest).max() < 1e-13 * expected

    def test_three_planted_modes_recovered(self, medium_grid):
        f = SpectralField.zeros(medium_grid, Parity.ODD)
        planted = [(1, 0, 0.3 + 0.1j), (5, 2, -0.2 + 0.7j), (11, 3, 1.1 - 0.4j)]
        for j, col, c in planted:
            f.coeff[j, col] = c
        back = to_spectral(to_physical(f))
        for j, col, c in planted:
            assert abs(back.coeff[j, col] - c) < 1e-13
        mask = np.ones_like(f.coeff, dtype=bool)
        for j, col, _ in planted:
            mask[j, col] = False
        assert np.abs(back.coeff[mask]).max() < 1e-13

    def test_rejects_odd_input_with_nonzero_walls(self, small_grid):
        values = np.ones((small_grid.nx, small_grid.ny + 1))
        with pytest.raises(ParityError, match="wall rows"):
            to_spectral(PhysicalField(small_grid, Parity.ODD, values))

    def test_nan_wall_row_gives_non_finite_coefficients(self, medium_grid, rng):
        """A NaN wall value passes the wall check and reaches the
        coefficients, where step reports it as a blow-up."""
        phys = to_physical(random_field(medium_grid, Parity.ODD, rng))
        phys.values[3, 0] = np.nan
        coeff = to_spectral(phys).coeff  # no ParityError
        assert not np.isfinite(coeff).all()

    def test_round_trip_physical_spectral_physical(self, medium_grid, rng):
        f = random_field(medium_grid, Parity.EVEN, rng)
        phys = to_physical(f)
        back = to_physical(to_spectral(phys))
        err = np.abs(back.values - phys.values).max() / np.abs(phys.values).max()
        assert err < 1e-12


class TestOutArgument:
    """A caller's field receives exactly what the allocating form returns."""

    @pytest.mark.parametrize("ny", [1, 8])
    @pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
    def test_out_is_filled_whatever_it_held(self, rng, ny, parity):
        grid = StripGrid(half_width_lx=20.0 * math.pi, nx=64, ny=ny, nu=1.0)
        f = random_field(grid, parity, rng)
        phys = PhysicalField(grid, parity, np.full((grid.nx, ny + 1), np.nan))
        assert to_physical(f, out=phys) is phys
        assert phys.values.tobytes() == to_physical(f).values.tobytes()
        spec = SpectralField(grid, parity, np.full(grid.coeff_shape(parity), np.nan))
        assert to_spectral(phys, out=spec) is spec
        assert spec.coeff.tobytes() == to_spectral(phys).coeff.tobytes()

    def test_out_of_the_other_parity_is_refused(self, small_grid, rng):
        f = random_field(small_grid, Parity.ODD, rng)
        even = PhysicalField(small_grid, Parity.EVEN, np.zeros((16, 5)))
        with pytest.raises(ParityError):
            to_physical(f, out=even)
        with pytest.raises(ParityError):
            to_spectral(to_physical(f), out=SpectralField.zeros(small_grid, Parity.EVEN))


def full_spectrum_l2(f):
    """sqrt(sum |coeff|^2 dxi) over the full spectrum: each stored column
    0 < j < nx/2 stands for j and -j."""
    weight = column_multiplicity(f.grid)
    return math.sqrt(float(np.sum(weight * np.abs(f.coeff) ** 2)) * f.grid.dxi)


class TestParseval:
    @pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
    def test_parseval_identity(self, medium_grid, rng, parity):
        """Coefficient sum with weight dxi equals the physical quadrature."""
        f = random_field(medium_grid, parity, rng)
        spectral = full_spectrum_l2(f)
        physical = quadrature_l2(to_physical(f))
        assert abs(spectral - physical) < 1e-10 * spectral

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval_property(self, seed):
        grid = StripGrid(half_width_lx=3.0 * math.pi, nx=16, ny=4, nu=1.0)
        f = random_field(grid, Parity.ODD, np.random.default_rng(seed))
        spectral = full_spectrum_l2(f)
        physical = quadrature_l2(to_physical(f))
        assert abs(spectral - physical) <= 1e-10 * max(spectral, 1e-30)


class TestRefinedEvaluation:
    def test_pad_modes_preserves_samples(self, small_grid, rng):
        f = random_field(small_grid, Parity.ODD, rng)
        coarse = to_physical(f).values
        fine = to_physical(pad_modes(f)).values
        # refined grid contains the coarse nodes at even indices
        assert np.abs(fine[::2, ::2] - coarse).max() < 1e-12 * np.abs(coarse).max()

    def test_physical_max_bounds_collocation_max(self, small_grid, rng):
        f = random_field(small_grid, Parity.ODD, rng)
        assert physical_max(f) >= np.abs(to_physical(f).values).max() - 1e-12


class TestEvenParityRefinement:
    def test_even_pad_modes_preserves_samples(self, small_grid, rng):
        f = random_field(small_grid, Parity.EVEN, rng)
        coarse = to_physical(f).values
        fine = to_physical(pad_modes(f)).values
        assert np.abs(fine[::2, ::2] - coarse).max() < 1e-12 * np.abs(coarse).max()
