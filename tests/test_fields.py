"""Domain types: grids, fields, parity bookkeeping, profiles."""

import math

import numpy as np
import pytest

from stripflow.errors import GridMismatchError, ParityError
from stripflow.fields import (
    FlowState,
    InitialProfile,
    Parity,
    PhysicalField,
    ProfileComponent,
    SpectralField,
    StripGrid,
    column_multiplicity,
    occupied_rows,
    random_field,
    xi_values,
)


class TestStripGrid:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="half_width_lx"):
            StripGrid(half_width_lx=-1.0, nx=16, ny=4, nu=1.0)
        with pytest.raises(ValueError, match="nx"):
            StripGrid(half_width_lx=1.0, nx=10**0 + 1, ny=4, nu=1.0)
        with pytest.raises(ValueError, match="nx"):
            StripGrid(half_width_lx=1.0, nx=18 + 1, ny=4, nu=1.0)
        with pytest.raises(ValueError, match="ny"):
            StripGrid(half_width_lx=1.0, nx=16, ny=0, nu=1.0)
        with pytest.raises(ValueError, match="nu"):
            StripGrid(half_width_lx=1.0, nx=16, ny=4, nu=0.0)

    def test_frequency_lattice(self, small_grid):
        xi = xi_values(small_grid)
        assert len(xi) == small_grid.nx // 2
        assert xi[0] == 0.0
        assert xi[1] == pytest.approx(math.pi / small_grid.half_width_lx)
        assert xi[-1] == pytest.approx(math.pi * (small_grid.nx / 2 - 1) / small_grid.half_width_lx)

    def test_column_multiplicity(self, small_grid):
        """Each stored column j > 0 also stands for its conjugate at -j."""
        m = column_multiplicity(small_grid)
        assert m.shape == (small_grid.nx // 2, 1)
        assert np.array_equal(m.ravel(), [1.0] + [2.0] * (small_grid.nx // 2 - 1))
        assert not m.flags.writeable

    def test_node_layout(self, small_grid):
        xs = small_grid.x_nodes()
        ys = small_grid.y_nodes()
        assert xs[0] == -small_grid.half_width_lx
        assert len(xs) == small_grid.nx
        assert ys[0] == 0.0 and ys[-1] == 1.0
        assert len(ys) == small_grid.ny + 1

    def test_grid_is_hashable_and_comparable(self, small_grid):
        same = StripGrid(small_grid.half_width_lx, small_grid.nx, small_grid.ny, small_grid.nu)
        assert same == small_grid
        assert hash(same) == hash(small_grid)


class TestSpectralField:
    def test_shape_validation(self, small_grid):
        with pytest.raises(ValueError, match="shape"):
            SpectralField(small_grid, Parity.ODD, np.zeros((3, 3), dtype=complex))
        # even parity carries the k=0 row
        f = SpectralField.zeros(small_grid, Parity.EVEN)
        assert f.coeff.shape == (small_grid.nx // 2, small_grid.ny + 1)

    def test_arithmetic_checks_lattice(self, small_grid, medium_grid, rng):
        f = random_field(small_grid, Parity.ODD, rng)
        g = random_field(small_grid, Parity.EVEN, rng)
        with pytest.raises(ParityError):
            _ = f + g
        h = random_field(medium_grid, Parity.ODD, rng)
        with pytest.raises(GridMismatchError):
            _ = f + h

    def test_random_field_is_real_and_band_limited(self, small_grid, rng):
        f = random_field(small_grid, Parity.ODD, rng, kmax=2, jmax=3)
        assert np.all(f.coeff[0].imag == 0.0)
        assert np.all(f.coeff[4:] == 0.0)
        assert np.all(f.coeff[:, 2:] == 0.0)
        assert np.all(f.coeff[1:4, :2] != 0.0)
        full = random_field(small_grid, Parity.EVEN, rng)
        assert np.all(full.coeff[:, -1] == 0.0)  # the cosine k = ny row
        assert np.all(full.coeff[1:, :-1] != 0.0)
        assert np.all(full.coeff[0].imag == 0.0)

    def test_physical_field_shape(self, small_grid):
        with pytest.raises(ValueError, match="shape"):
            PhysicalField(small_grid, Parity.ODD, np.zeros((2, 2)))


class TestFlowState:
    def test_requires_odd_parity(self, small_grid, rng):
        odd = random_field(small_grid, Parity.ODD, rng)
        even = random_field(small_grid, Parity.EVEN, rng)
        with pytest.raises(ParityError):
            FlowState(0.0, odd, SpectralField(small_grid, Parity.EVEN, even.coeff))

    def test_requires_shared_grid(self, small_grid, medium_grid, rng):
        with pytest.raises(GridMismatchError):
            FlowState(
                0.0,
                random_field(small_grid, Parity.ODD, rng),
                random_field(medium_grid, Parity.ODD, rng),
            )

    def test_copy_is_deep(self, small_grid, rng):
        s = FlowState(
            1.0,
            random_field(small_grid, Parity.ODD, rng),
            random_field(small_grid, Parity.ODD, rng),
        )
        c = s.copy()
        c.omega.coeff[0, 0] = 999.0
        assert s.omega.coeff[0, 0] != 999.0


class TestProfiles:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            ProfileComponent(k=0, amplitude=1.0)
        with pytest.raises(ValueError):
            ProfileComponent(k=1, amplitude=1.0, xi_scale=0.0)

    def test_envelope_shape(self):
        c = ProfileComponent(k=1, amplitude=2.0, xi_scale=3.0)
        xi = np.array([0.0, 3.0])
        env = c.envelope(xi)
        assert env[0] == pytest.approx(2.0)
        assert env[1] == pytest.approx(2.0 * math.exp(-1.0))

    def test_profile_rejects_non_components(self):
        with pytest.raises(TypeError):
            InitialProfile(theta=((1, 1.0),))


class TestOccupiedRows:
    def test_empty_input_gives_an_empty_span(self, medium_grid):
        c = np.zeros(medium_grid.coeff_shape(Parity.ODD), dtype=complex)
        rows = occupied_rows(c, c)
        assert rows == slice(0, 0)
        assert c[:, rows].shape == (medium_grid.nx // 2, 0)

    def test_single_row_is_a_view(self, medium_grid):
        c = np.zeros(medium_grid.coeff_shape(Parity.ODD), dtype=complex)
        c[5, 2] = 1e-300j
        rows = occupied_rows(c)
        assert rows == slice(2, 3)
        assert np.shares_memory(c[:, rows], c)

    def test_span_covers_the_gap_between_arrays(self, medium_grid):
        a = np.zeros(medium_grid.coeff_shape(Parity.ODD), dtype=complex)
        b = a.copy()
        a[1, 1] = 1.0
        b[0, 4] = -2.0
        assert occupied_rows(a, b) == slice(1, 5)
        assert occupied_rows(b, a) == slice(1, 5)

    def test_nan_and_inf_count_as_occupied(self, medium_grid):
        c = np.zeros(medium_grid.coeff_shape(Parity.ODD), dtype=complex)
        c[0, 1] = np.nan
        assert occupied_rows(c) == slice(1, 2)
        c[2, 3] = complex(0.0, np.inf)
        assert occupied_rows(c) == slice(1, 4)

    def test_span_over_half_the_rows_is_the_whole_axis(self, medium_grid):
        c = np.zeros(medium_grid.coeff_shape(Parity.ODD), dtype=complex)
        c[0, [2, 5]] = 1.0  # four of eight rows
        assert occupied_rows(c) == slice(2, 6)
        c[0, 6] = 1.0  # five of eight
        assert occupied_rows(c) == slice(None)
        assert c[:, occupied_rows(c)].flags.c_contiguous
