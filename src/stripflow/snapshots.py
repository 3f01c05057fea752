"""Snapshot serialization: one CSV file per field with a header line.

Header:  # t=<t> nx=<nx> ny=<ny> lx=<Lx> nu=<nu> parity=<odd|even>
Rows:    j,k,re,im   for every stored (j, k): j = 0..nx/2-1 ascending, then
                     k ascending.

The rows are the stored half lattice as it stands (see the fields module);
the conjugate columns -j are implied.  Floats are written with repr
(shortest round-trip form), so a dump/load cycle is bit-exact.  The loader
takes only the whole lattice, each mode once and in this order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fields import FlowState, Parity, SpectralField, StripGrid, y_wavenumbers


def save_field_csv(field: SpectralField, t: float, path):
    grid = field.grid
    lines = [
        f"# t={t!r} nx={grid.nx} ny={grid.ny} lx={grid.half_width_lx!r} "
        f"nu={grid.nu!r} parity={field.parity.value}",
        "j,k,re,im",
    ]
    ks = y_wavenumbers(grid, field.parity).tolist()
    for j, column in enumerate(field.coeff.tolist()):
        for k, c in zip(ks, column):
            lines.append(f"{j},{k},{c.real!r},{c.imag!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def _read_header(line):
    """(t, grid, parity) from a header line; ValueError if it is malformed."""
    if not line.startswith("# "):
        raise ValueError("missing header line")
    meta = {}
    for item in line[2:].split():
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"header item {item!r} is not key=value")
        meta[key] = value
    missing = [key for key in ("t", "nx", "ny", "lx", "nu", "parity") if key not in meta]
    if missing:
        raise ValueError(f"header lacks {', '.join(missing)}")
    grid = StripGrid(half_width_lx=float(meta["lx"]), nx=int(meta["nx"]),
                     ny=int(meta["ny"]), nu=float(meta["nu"]))
    return float(meta["t"]), grid, Parity(meta["parity"])


def load_field_csv(path):
    """Read a field dump; returns (t, SpectralField).

    Raises ValueError naming the path and line on a malformed header, a
    row that is not four numbers j,k,re,im, a mode outside the header's
    grid (a file that lists j < 0, as files from before the half-lattice
    format do, fails at its first such row) or a mode out of the written
    order, and naming the path and row count on a file that ends early.
    """
    text = Path(path).read_text().splitlines()
    try:
        t, grid, parity = _read_header(text[0] if text else "")
    except ValueError as exc:
        raise ValueError(f"{path}, line 1: {exc}") from None

    half = grid.nx // 2
    ks = y_wavenumbers(grid, parity).tolist()
    modes = ((j, k) for j in range(half) for k in ks)
    values = []
    for number, line in enumerate(text[2:], start=3):
        if not line:
            continue
        try:
            j_s, k_s, re_s, im_s = line.split(",")
            j, k, c = int(j_s), int(k_s), complex(float(re_s), float(im_s))
        except ValueError:
            raise ValueError(f"{path}, line {number}: expected j,k,re,im, "
                             f"got {line!r}") from None
        want = next(modes, None)
        if (j, k) != want:
            if not 0 <= j < half or k not in ks:
                raise ValueError(f"{path}, line {number}: mode (j={j}, k={k}) lies "
                                 f"outside the {parity.value} grid nx={grid.nx}, "
                                 f"ny={grid.ny}")
            expected = "no more rows" if want is None else "mode (j={}, k={})".format(*want)
            raise ValueError(f"{path}, line {number}: expected {expected}, got (j={j}, k={k})")
        values.append(c)
    if len(values) != half * len(ks):
        raise ValueError(f"{path}: {len(values)} rows, but the {parity.value} grid "
                         f"nx={grid.nx}, ny={grid.ny} stores {half * len(ks)}")
    coeff = np.array(values, dtype=np.complex128).reshape(half, len(ks))
    return t, SpectralField(grid, parity, coeff)


def save_state(state: FlowState, directory, basename):
    """Write one snapshot as <basename>.omega.csv and <basename>.theta.csv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, f in (("omega", state.omega), ("theta", state.theta)):
        p = directory / f"{basename}.{name}.csv"
        save_field_csv(f, state.t, p)
        paths.append(p)
    return paths


def load_state(directory, basename):
    directory = Path(directory)
    t_w, omega = load_field_csv(directory / f"{basename}.omega.csv")
    t_t, theta = load_field_csv(directory / f"{basename}.theta.csv")
    if t_w != t_t:
        raise ValueError("omega/theta snapshot times disagree")
    return FlowState(t_w, omega, theta)
