"""Experiment orchestration: run a named experiment, write artifacts.

Every run writes a manifest (manifest.json) recording the fully defaulted
configuration, its hash, the code version, wall time, the truncation
honesty window where applicable, and the name of every output file.
CSV floats use repr formatting, so identical config + seed reproduces
bit-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    CONTINUUM_LADDER,
    continuum_linear_decay,
    kernel_decay_integral,
    kernel_decay_integral_polar,
    nu_star,
    nu_star_grid_search,
    truncation_honesty_tmax,
    verify_symbol_bounds,
)
from .config import ExperimentConfig, config_as_dict, serialize_config
from .diagnostics import DecayCurve, energy_report, fit_rate, theorem_suite
from .errors import ConfigError, StripflowError
from .oracles import pair_reference, relative_gap
from .propagators import (
    apply_pair,
    classify_region,
    pair_exponential,
    propagate_linear_pair,
    sigma_lambda,
)
from .snapshots import save_state
from .solver import make_initial_data, trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
#: the run finished, and its summary's ``pass`` verdict is false
EXIT_VERDICT = 4


def run(cfg: ExperimentConfig, overrides=None) -> int:
    """Execute the configured experiment; returns the process exit status.

    The manifest is written in every case, also when the summary's
    ``pass`` verdict fails (EXIT_VERDICT).  A run that fails also prints
    its ``summary.error`` on stderr.
    """
    import sys
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = _RUNNERS[cfg.experiment]

    t0 = time.perf_counter()
    try:
        outputs, summary = runner(cfg, out_dir)
    except ConfigError as exc:
        _write_manifest(cfg, out_dir, [], {"error": str(exc)}, t0, overrides)
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StripflowError as exc:
        error = f"{type(exc).__name__}: {exc}"
        _write_manifest(cfg, out_dir, [], {"error": error}, t0, overrides)
        print(f"run failed: {error}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write_manifest(cfg, out_dir, outputs, summary, t0, overrides)
    return EXIT_VERDICT if summary.get("pass") is False else EXIT_OK


def _write_manifest(cfg, out_dir, outputs, summary, t0, overrides):
    doc = serialize_config(cfg)
    manifest = {
        "experiment": cfg.experiment,
        "config": config_as_dict(cfg),
        "config_hash": hashlib.sha256(doc.encode()).hexdigest(),
        "code_version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "overrides": list(overrides or []),
        "outputs": [str(Path(p).name) for p in outputs],
        "summary": summary,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_csv(path, header, rows):
    """One line per row; floats (numpy included) as repr(float(v))."""
    lines = [header]
    lines.extend(
        ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                 for v in row)
        for row in rows
    )
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fit_payload(label, fit, expected):
    payload = fit.as_dict()
    payload["label"] = label
    payload["expected_exponent"] = expected
    return payload


# ---------------------------------------------------------------------------

def _run_nu_star(cfg, out_dir):
    closed = nu_star()
    best, best_xi, best_k = nu_star_grid_search()
    k2_best, _, _ = nu_star_grid_search(k_min=2)
    payload = {
        "nu_star": closed,
        "nu_star_squared": closed**2,
        "closed_form": "sqrt(16 / (27 pi^4))",
        "grid_search_value_squared": best,
        "grid_search_delta": abs(best - closed**2),
        "grid_search_argmax": {"xi": best_xi, "k": best_k},
        "k_ge_2_supremum_squared": k2_best,
        "in_unit_interval": 0.0 < closed**2 < 1.0,
    }
    path = out_dir / "nu_star.json"
    _write_json(path, payload)
    print(f"nu_star = {closed!r} (grid-search delta {payload['grid_search_delta']:.3e})")
    return [path], payload


def _run_linear_decay_continuum(cfg, out_dir):
    times = cfg.sample_times()
    norms = [(field, nid) for field, nid, _ in CONTINUUM_LADDER]
    curves = continuum_linear_decay(cfg.profile(), cfg.grid_nu, norms, times)
    outputs = []
    fits = []
    for curve, (_, _, expected) in zip(curves, CONTINUUM_LADDER):
        path = out_dir / f"curve_{curve.label}.csv"
        _write_csv(path, "t,value", zip(curve.times, curve.values))
        outputs.append(path)
        fit = fit_rate(curve, (cfg.times_t_min, cfg.times_t_max))
        fits.append(_fit_payload(curve.label, fit, expected))
    fits_path = out_dir / "rate_fits.json"
    _write_json(fits_path, fits)
    outputs.append(fits_path)
    summary = {"fits": fits}
    return outputs, summary


def _ladder_outputs(cfg, out_dir, states, report, honesty_tmax):
    window = (cfg.times_t_min, min(cfg.times_t_max, honesty_tmax))
    if window[1] < 10.0 * window[0]:
        raise ConfigError(
            f"fit window [{window[0]:g}, {window[1]:g}] (capped by the "
            f"truncation-honesty time {honesty_tmax:g}) spans less than one "
            "decade; enlarge grid.half_width_lx or shrink times.t_min",
            key="times.t_min",
        )
    results = theorem_suite(states, window=window)
    rows = []
    fits = []
    for curve, fit, expected in results:
        rows.extend((t, curve.label, v) for t, v in zip(curve.times, curve.values))
        fits.append(_fit_payload(curve.label, fit, expected))
    curves_path = out_dir / "ladder_norms.csv"
    _write_csv(curves_path, "t,norm_id,value", rows)
    fits_path = out_dir / "rate_fits.json"
    _write_json(fits_path, fits)
    summary = {
        "fits": fits,
        "initial_data": report,
        "honesty_window": {"t_min": window[0], "t_max": window[1],
                           "truncation_tmax": honesty_tmax},
    }
    return [curves_path, fits_path], summary


def _run_linear_decay_truncated(cfg, out_dir):
    grid = cfg.grid()
    state0, report = make_initial_data(cfg.profile(), grid)
    # a generator: theorem_suite reads each snapshot once
    states = (
        propagate_linear_pair(state0.omega, state0.theta, t)
        for t in np.concatenate([[0.0], cfg.sample_times()])
    )
    honesty = truncation_honesty_tmax(grid)
    return _ladder_outputs(cfg, out_dir, states, report, honesty)


def _run_nonlinear_decay(cfg, out_dir):
    if cfg.profile_k == cfg.grid_ny:
        # to_physical never synthesizes sine row ny: the transport term of
        # such data is exactly zero, and the run would fit the linear rates
        raise ConfigError(
            f"row k = grid.ny = {cfg.grid_ny} is invisible on the collocation "
            "grid, so the transport term vanishes; take k < grid.ny",
            key="profile.k",
        )
    grid = cfg.grid()
    state0, report = make_initial_data(cfg.profile(), grid)
    honesty = truncation_honesty_tmax(grid)
    samples = np.concatenate([[0.0], cfg.sample_times()])
    samples = samples[samples <= min(cfg.times_t_max, honesty) + 1e-9]
    final = None

    def states():
        # theorem_suite reads each snapshot once; the last one is kept
        nonlocal final
        for final in trajectory(state0, cfg.stepper(), samples):
            yield final

    outputs, summary = _ladder_outputs(cfg, out_dir, states(), report, honesty)
    outputs.extend(save_state(final, out_dir, f"snapshot_t{final.t:g}"))
    summary["steps"] = int(round(final.t / cfg.stepper_dt))
    return outputs, summary


def _run_symbol_bounds(cfg, out_dir):
    outputs = []
    reports = []
    star = nu_star()
    for nu in cfg.bounds_nus:
        rng = np.random.default_rng(cfg.seed)
        for region in (1, 2, 3, 4):
            rep = verify_symbol_bounds(nu, region, cfg.bounds_samples, rng)
            reports.append({
                "nu": nu,
                "region": f"I{region}",
                "empty": rep.empty,
                "found": rep.found,
                "constants": rep.constants,
                "constants_doubled": rep.constants_doubled,
                "stable": rep.stable,
                "oscillatory_allowed": nu < star,
            })
        # classification dump on a fixed lattice sample
        rng_dump = np.random.default_rng(cfg.seed + 1)
        xi = rng_dump.uniform(-50.0, 50.0, 4096)
        k = rng_dump.integers(1, 33, 4096)
        tags = classify_region(xi, k, nu)
        dump = out_dir / f"regions_nu{nu!r}.csv"
        _write_csv(dump, "xi,k,region",
                   ((x, kk, f"I{tag}") for x, kk, tag in zip(xi, k, tags)))
        outputs.append(dump)

    path = out_dir / "symbol_bounds.json"
    _write_json(path, reports)
    outputs.append(path)
    return outputs, {"reports": reports, "nu_star": star}


def _run_kernel_integral(cfg, out_dir):
    times = cfg.sample_times()
    values = np.array([kernel_decay_integral(t) for t in times])
    curve = DecayCurve(times, values, "kernel_integral")
    path = out_dir / "kernel_integral.csv"
    _write_csv(path, "t,value", zip(curve.times, curve.values))
    fit = fit_rate(curve, (cfg.times_t_min, cfg.times_t_max))
    scaled = values * np.sqrt(times)
    k0 = kernel_decay_integral(0.0)
    payload = {
        "fit": _fit_payload("kernel_integral", fit, -0.5),
        "k0": k0,
        "k0_exact": 1.0 / (4.0 * math.pi),
        "k0_polar": kernel_decay_integral_polar(0.0),
        "polar_cross_check_max_rel": max(
            abs(kernel_decay_integral_polar(t) - v) / v
            for t, v in [(times[0], values[0]), (times[-1], values[-1])]
        ),
        "sqrt_t_ratio": float(scaled.max() / scaled.min()),
    }
    fits_path = out_dir / "kernel_fit.json"
    _write_json(fits_path, payload)
    return [path, fits_path], payload


def _run_energy_check(cfg, out_dir):
    grid = cfg.grid()
    state0, _ = make_initial_data(cfg.profile(), grid)

    # a generator: energy_report reads each snapshot once, so memory stays
    # at a few lattices however many times are tabulated
    states = (
        propagate_linear_pair(state0.omega, state0.theta, t)
        for t in np.linspace(0.0, 1.0, 4001)
    )
    fine = energy_report(states, grid.nu)
    # every other time of the 4001-point tabulation is the 2001-point one
    coarse = fine.thinned(2)
    csv_path = out_dir / "energy.csv"
    _write_csv(csv_path, "t,energy,grad_omega_sq,b3",
               zip(fine.times, fine.energy, fine.grad_omega_sq, fine.b3))
    payload = {
        "residual_linear_fine": fine.residual_linear,
        "residual_linear_coarse": coarse.residual_linear,
        "refinement_ratio": coarse.residual_linear / max(fine.residual_linear, 1e-300),
        "b3_max_abs": float(np.abs(fine.b3).max()),
        "energy_initial": float(fine.energy[0]),
        "energy_final": float(fine.energy[-1]),
    }
    json_path = out_dir / "energy_residuals.json"
    _write_json(json_path, payload)
    return [csv_path, json_path], payload


def _run_oracle_suite(cfg, out_dir):
    rng = np.random.default_rng(cfg.seed)
    star = nu_star()
    nus = (0.01, star, 1.0)
    eval_times = np.array([0.1, 1.0, 10.0, 100.0])

    modes = []
    for _ in range(cfg.oracle_modes):
        xi = rng.uniform(-50.0, 50.0)
        k = int(rng.integers(1, 33))
        nu = nus[rng.integers(0, 3)]
        y0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        modes.append((xi, k, nu, y0))
    xi, k, nu, y0 = (np.array(column) for column in zip(*modes))
    ref = pair_reference(xi, k, nu, y0, eval_times)

    p, sigma, lam_p, lam_m = sigma_lambda(xi, k, nu)
    closed = np.empty_like(ref)
    for i, t in enumerate(eval_times):
        m = pair_exponential(xi, p, sigma, (lam_p, lam_m), nu, t)
        closed[:, i, 0], closed[:, i, 1] = apply_pair(m, y0[:, 0], y0[:, 1])
    scale0 = np.linalg.norm(y0, axis=-1)
    gaps = relative_gap(closed, ref, scale0[:, None])
    worst = float(gaps.max())
    rows = ((x, kk, v, t, g) for x, kk, v, row in zip(xi, k, nu, gaps)
            for t, g in zip(eval_times, row))

    csv_path = out_dir / "oracle_errors.csv"
    _write_csv(csv_path, "xi,k,nu,t,rel_gap", rows)
    payload = {"modes": cfg.oracle_modes, "max_rel_gap": worst,
               "tolerance": 1e-8, "pass": worst <= 1e-8}
    json_path = out_dir / "oracle_summary.json"
    _write_json(json_path, payload)
    return [csv_path, json_path], payload


_RUNNERS = {
    "nu-star": _run_nu_star,
    "linear-decay-continuum": _run_linear_decay_continuum,
    "linear-decay-truncated": _run_linear_decay_truncated,
    "nonlinear-decay": _run_nonlinear_decay,
    "symbol-bounds": _run_symbol_bounds,
    "kernel-integral": _run_kernel_integral,
    "energy-check": _run_energy_check,
    "oracle-suite": _run_oracle_suite,
}
