"""Snapshot files: the pinned text format and the loader's checks."""

import re

import numpy as np
import pytest

from stripflow.fields import Parity, SpectralField, StripGrid
from stripflow.snapshots import load_field_csv, save_field_csv

GRID = StripGrid(half_width_lx=1.5, nx=4, ny=2, nu=0.25)

#: the stored columns j = 0, 1 of two tiny fields; a zero imaginary part
#: keeps its sign
COLUMNS = {
    Parity.ODD: [[1.5, -0.25], [0.5 - 1.25j, complex(3.0, -0.0)]],
    Parity.EVEN: [[2.0, 0.0, -0.125], [-1e-300 + 2.5j, 0.0, 7.0 + 0.1j]],
}

#: their files, byte for byte, written out by hand from the format: the
#: stored lattice as it stands, j ascending then k ascending, floats by
#: repr, no conjugate rows
PINNED = {
    Parity.ODD: """\
# t=0.75 nx=4 ny=2 lx=1.5 nu=0.25 parity=odd
j,k,re,im
0,1,1.5,0.0
0,2,-0.25,0.0
1,1,0.5,-1.25
1,2,3.0,-0.0
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
                                       ("1,3,0.0,0.0", 5), ("1,0,0.0,0.0", 5),
                                       ("-2,1,0.0,0.0", 5)])
def test_a_mode_outside_the_grid_names_path_and_line(tmp_path, row, line):
    """-2,1,0.0,0.0 is the first row of negative j that files of the
    earlier full-spectrum layout hold: such a file fails there."""
    lines = PINNED[Parity.ODD].splitlines()
    lines[line - 1] = row
    path = tmp_path / "f.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"f\.csv, line {line}: .*outside"):
        load_field_csv(path)


@pytest.mark.parametrize("old, new, line, message", [
    (" nu=0.25", "", 1, "header lacks nu"),
    (" parity=odd", " parity=odd stray", 1, "header item 'stray' is not key=value"),
    (PINNED[Parity.ODD], "", 1, "missing header line"),
    ("1,1,0.5,-1.25", "1,1,0.5", 5, "expected j,k,re,im, got '1,1,0.5'"),
    ("1,1,0.5,-1.25", "0,1,abc,0.0", 5, "expected j,k,re,im, got '0,1,abc,0.0'"),
    ("1,2,3.0,-0.0\n", "", None, "3 rows, but the odd grid nx=4, ny=2 stores 4"),
    ("0,2,-0.25,0.0", "0,1,1.5,0.0", 4, "expected mode (j=0, k=2), got (j=0, k=1)"),
    ("1,1,0.5,-1.25\n1,2,3.0,-0.0", "1,2,3.0,-0.0\n1,1,0.5,-1.25", 5,
     "expected mode (j=1, k=1), got (j=1, k=2)"),
    ("1,2,3.0,-0.0\n", "1,2,3.0,-0.0\n1,2,3.0,-0.0\n", 7,
     "expected no more rows, got (j=1, k=2)"),
], ids=["header-without-nu", "bare-word-in-header", "empty-file", "three-fields",
        "not-a-float", "truncated", "repeated-row", "reordered-rows", "extra-row"])
def test_a_malformed_file_names_path_and_line(tmp_path, old, new, line, message):
    """A file that ends early names its row count instead of a line."""
    path = tmp_path / "f.csv"
    path.write_text(PINNED[Parity.ODD].replace(old, new))
    where = "" if line is None else f", line {line}"
    with pytest.raises(ValueError, match=rf"f\.csv{where}: {re.escape(message)}$"):
        load_field_csv(path)
