"""Snapshot files: the pinned text format and the loader's checks."""

import numpy as np
import pytest

from stripflow.fields import Parity, SpectralField, StripGrid
from stripflow.snapshots import load_field_csv, save_field_csv

GRID = StripGrid(half_width_lx=1.5, nx=4, ny=2, nu=0.25)

#: stored columns j = 0, 1, 2 (the zero Nyquist column) of two tiny fields
COLUMNS = {
    Parity.ODD: [[1.5, -0.25], [0.5 - 1.25j, 3.0], [0.0, 0.0]],
    Parity.EVEN: [[2.0, 0.0, -0.125], [-1e-300 + 2.5j, 0.0, 7.0 + 0.1j], [0.0, 0.0, 0.0]],
}

#: their files, byte for byte: files already written must keep loading and
#: comparing, so the format does not follow the stored layout
PINNED = {
    Parity.ODD: """\
# t=0.75 nx=4 ny=2 lx=1.5 nu=0.25 parity=odd
j,k,re,im
0,1,1.5,0.0
0,2,-0.25,0.0
1,1,0.5,-1.25
1,2,3.0,0.0
-2,1,0.0,0.0
-2,2,0.0,0.0
-1,1,0.5,1.25
-1,2,3.0,0.0
""",
    Parity.EVEN: """\
# t=0.75 nx=4 ny=2 lx=1.5 nu=0.25 parity=even
j,k,re,im
0,0,2.0,0.0
0,1,0.0,0.0
0,2,-0.125,0.0
1,0,-1e-300,2.5
1,1,0.0,0.0
1,2,7.0,0.1
-2,0,0.0,0.0
-2,1,0.0,0.0
-2,2,0.0,0.0
-1,0,-1e-300,-2.5
-1,1,0.0,0.0
-1,2,7.0,-0.1
""",
}


def tiny_field(parity):
    return SpectralField(GRID, parity, np.array(COLUMNS[parity], dtype=complex))


@pytest.mark.parametrize("parity", [Parity.ODD, Parity.EVEN])
def test_file_format_is_pinned(tmp_path, parity):
    path = tmp_path / "f.csv"
    save_field_csv(tiny_field(parity), 0.75, path)
    assert path.read_text() == PINNED[parity]
    t, back = load_field_csv(path)
    assert t == 0.75
    assert back.coeff.tobytes() == tiny_field(parity).coeff.tobytes()


@pytest.mark.parametrize("row, line", [("2,1,0.0,0.0", 5), ("-3,1,0.0,0.0", 5),
                                       ("1,3,0.0,0.0", 5), ("1,0,0.0,0.0", 5)])
def test_a_mode_outside_the_grid_names_path_and_line(tmp_path, row, line):
    lines = PINNED[Parity.ODD].splitlines()
    lines[line - 1] = row
    path = tmp_path / "f.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"f\.csv, line {line}: .*outside"):
        load_field_csv(path)


def test_a_negative_row_that_is_not_the_conjugate_is_refused(tmp_path):
    """The half lattice cannot hold it; dropping it would load another field."""
    text = PINNED[Parity.ODD].replace("-1,1,0.5,1.25", "-1,1,0.5,1.5")
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"f\.csv, line 9: .*conjugate"):
        load_field_csv(path)


def test_zero_imaginary_parts_of_either_sign_load(tmp_path):
    """A conjugate row whose zero carries the other sign is still a conjugate."""
    text = PINNED[Parity.ODD].replace("-1,2,3.0,0.0", "-1,2,3.0,-0.0")
    path = tmp_path / "f.csv"
    path.write_text(text)
    _, back = load_field_csv(path)
    assert np.array_equal(back.coeff, tiny_field(Parity.ODD).coeff)
