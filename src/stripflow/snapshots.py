"""Snapshot serialization: one CSV file per field with a header line.

Header:  # t=<t> nx=<nx> ny=<ny> lx=<Lx> nu=<nu> parity=<odd|even>
Rows:    j,k,re,im   for every (j, k), j in FFT order 0..nx/2-1, -nx/2..-1.

A row of negative j is the conjugate of the stored column -j (a zero
imaginary part written as 0.0), and j = -nx/2 the zero Nyquist column.
Floats are written with repr (shortest round-trip form), so a dump/load
cycle is bit-exact.
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
    half = grid.nx // 2
    ks = y_wavenumbers(grid, field.parity).tolist()
    for j in np.fft.fftfreq(grid.nx, 1.0 / grid.nx).astype(int).tolist():
        for k, c in zip(ks, field.coeff[abs(j)].tolist()):
            # 0.0 - im conjugates and turns -0.0 into 0.0
            im = 0.0 - c.imag if -half < j < 0 else c.imag
            lines.append(f"{j},{k},{c.real!r},{im!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_field_csv(path):
    """Read a field dump; returns (t, SpectralField).

    Raises ValueError, naming the path and line, on a mode outside the
    header's grid or a row of negative j that is not the conjugate of its
    column -j: the stored half lattice cannot hold such a field.
    """
    text = Path(path).read_text().splitlines()
    header = text[0]
    if not header.startswith("# "):
        raise ValueError(f"{path}: missing header line")
    meta = dict(item.split("=", 1) for item in header[2:].split())
    grid = StripGrid(
        half_width_lx=float(meta["lx"]),
        nx=int(meta["nx"]),
        ny=int(meta["ny"]),
        nu=float(meta["nu"]),
    )
    parity = Parity(meta["parity"])
    t = float(meta["t"])

    half = grid.nx // 2
    col_of = {int(k): i for i, k in enumerate(y_wavenumbers(grid, parity))}
    coeff = np.zeros(grid.coeff_shape(parity), dtype=np.complex128)
    for number, line in enumerate(text[2:], start=3):
        if not line:
            continue
        j_s, k_s, re_s, im_s = line.split(",")
        j, k, c = int(j_s), int(k_s), complex(float(re_s), float(im_s))
        if not -half <= j < half or k not in col_of:
            raise ValueError(f"{path}, line {number}: mode (j={j}, k={k}) lies outside "
                             f"the {parity.value} grid nx={grid.nx}, ny={grid.ny}")
        if not -half < j < 0:
            coeff[abs(j), col_of[k]] = c
            continue
        # in FFT order the row of -j came first
        held = complex(coeff[-j, col_of[k]]).conjugate()
        if c != held and not (c != c and held != held):  # two NaNs match
            raise ValueError(f"{path}, line {number}: mode (j={j}, k={k}) is not the "
                             f"conjugate of mode (j={-j}, k={k})")
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
