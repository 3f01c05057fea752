"""CLI end-to-end: exit codes, artifacts, manifest, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stripflow
from stripflow import experiments
from stripflow.cli import main


def run_cli(args):
    return main(args)


def test_cli_import_leaves_scipy_integrate_unloaded():
    """Only the oracle reference loads scipy.integrate, on first use."""
    env = dict(os.environ, PYTHONPATH=str(Path(stripflow.__file__).parents[1]))
    probe = "import sys, stripflow, stripflow.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestNuStarExperiment:
    def test_writes_outputs_and_manifest(self, tmp_path, capsys):
        code = run_cli(["nu-star", "--output-dir", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["experiment"] == "nu-star"
        assert "nu_star.json" in manifest["outputs"]
        payload = json.loads((tmp_path / "nu_star.json").read_text())
        assert payload["in_unit_interval"] is True
        assert payload["grid_search_delta"] < 1e-9
        assert "nu_star" in capsys.readouterr().out

    def test_no_orphan_artifacts(self, tmp_path):
        run_cli(["nu-star", "--output-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        produced = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        assert produced == set(manifest["outputs"])


class TestValidationFailures:
    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.nu = -1.0\n")
        code = run_cli(["nu-star", "--config", str(cfg),
                        "--output-dir", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_key_via_set_exits_2(self, tmp_path):
        code = run_cli(["nu-star", "--set", "viscocity=1.0",
                        "--output-dir", str(tmp_path)])
        assert code == 2

    def test_non_finite_value_exits_2_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["linear-decay-continuum", "--set", "profile.amplitude=nan",
                        "--output-dir", str(out)])
        assert code == 2
        assert "profile.amplitude" in capsys.readouterr().err
        assert not out.exists()

    def test_profile_row_beyond_the_grid_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["linear-decay-truncated", "--set", "profile.k=40",
                        "--set", "grid.nx=64", "--set", "grid.ny=8",
                        "--output-dir", str(out)])
        assert code == 2
        assert "profile.k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        "# c\n\nseed = 1\nnot a key value\n",
        "# c\n\nseed = 1\nseed = 2\n",
    ], ids=["syntax", "duplicate"])
    def test_config_file_error_cites_its_own_line(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(doc)
        out = tmp_path / "out"
        code = run_cli(["nu-star", "--config", str(cfg), "--output-dir", str(out)])
        assert code == 2
        assert "line 4:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, named", [
        ("grid.nx=many", "'grid.nx'"),
        ("=5", "'=5'"),
        ("seed", "'seed'"),
    ])
    def test_bad_flag_names_itself_not_a_line(self, tmp_path, capsys, flag, named):
        out = tmp_path / "out"
        code = run_cli(["nu-star", "--set", flag, "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "line" not in err
        assert not out.exists()

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run_cli(["defrobnicate"])

    def test_missing_config_file_exits_2(self, tmp_path):
        code = run_cli(["nu-star", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2


class TestOverrides:
    def test_flag_wins_over_file_and_is_recorded(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\ntimes.t_min = 10\ntimes.t_max = 100\n")
        out = tmp_path / "out"
        code = run_cli([
            "kernel-integral", "--config", str(cfg), "--seed", "7",
            "--set", "times.per_decade=9", "--output-dir", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["times.per_decade"] == 9
        assert any("seed=7" in o for o in manifest["overrides"])

    def test_last_repeated_flag_wins(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["nu-star", "--set", "seed=1", "--set", "seed=2",
                        "--output-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 2
        assert manifest["overrides"][:2] == ["seed=1", "seed=2"]

    def test_subcommand_wins_over_experiment_flag(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["nu-star", "--set", "experiment=kernel-integral",
                        "--output-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "nu-star"
        assert manifest["outputs"] == ["nu_star.json"]
        assert "experiment=kernel-integral" in manifest["overrides"]


class TestDeterminism:
    def test_identical_config_and_seed_bit_identical_csv(self, tmp_path):
        args = ["symbol-bounds", "--seed", "5",
                "--set", "bounds.samples=50", "--set", "bounds.nus=0.01"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--output-dir", str(out1)]) == 0
        assert run_cli(args + ["--output-dir", str(out2)]) == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_nonlinear_trajectory_bit_identical(self, tmp_path):
        args = ["nonlinear-decay", "--seed", "5", "--set", "grid.nx=64",
                "--set", "grid.ny=8", "--set", "times.t_min=1",
                "--set", "times.t_max=10"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--output-dir", str(out1)]) == 0
        assert run_cli(args + ["--output-dir", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        assert sum(n.startswith("snapshot_") for n in names) == 2
        assert "ladder_norms.csv" in names
        assert names == sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_oracle_suite_writes_passing_summary(self, tmp_path):
        out = tmp_path / "oracle"
        code = run_cli(["oracle-suite", "--seed", "3",
                        "--set", "oracle.modes=40", "--output-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "oracle_summary.json").read_text())
        assert payload["pass"] is True

    def test_oracle_suite_failed_verdict_exits_4(self, tmp_path, monkeypatch):
        reference = experiments.pair_reference

        def perturbed(*args):
            return reference(*args) * (1.0 + 1e-6)

        monkeypatch.setattr(experiments, "pair_reference", perturbed)
        out = tmp_path / "oracle"
        code = run_cli(["oracle-suite", "--seed", "3",
                        "--set", "oracle.modes=20", "--output-dir", str(out)])
        assert code == 4
        payload = json.loads((out / "oracle_summary.json").read_text())
        assert payload["pass"] is False
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["pass"] is False


class TestLinearContinuumExperiment:
    def test_curves_and_fits_written(self, tmp_path):
        out = tmp_path / "cont"
        code = run_cli([
            "linear-decay-continuum", "--output-dir", str(out),
            "--set", "times.t_min=1000", "--set", "times.t_max=100000",
            "--set", "grid.nu=1.0", "--set", "times.per_decade=10",
        ])
        assert code == 0
        fits = json.loads((out / "rate_fits.json").read_text())
        by_label = {f["label"]: f for f in fits}
        assert by_label["theta_h4"]["exponent"] == pytest.approx(-0.25, abs=0.03)
        curve = (out / "curve_theta_h4.csv").read_text().splitlines()
        assert curve[0] == "t,value"
        assert len(curve) > 10


class TestRuntimeValidation:
    def test_honesty_window_below_a_decade_exits_2(self, tmp_path, monkeypatch):
        # Lx = 20 pi gives truncation-honesty t_max = 40 < 10 * t_min
        from stripflow import solver

        calls = []
        monkeypatch.setattr(solver, "step", lambda state, cfg: calls.append(state))
        code = run_cli([
            "nonlinear-decay", "--output-dir", str(tmp_path),
            "--set", "grid.nx=64", "--set", "grid.ny=8",
            "--set", "grid.half_width_lx=62.83185307179586",
            "--set", "times.t_min=10", "--set", "times.t_max=4000",
        ])
        assert code == 2
        assert calls == []  # the window is checked before any step
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "decade" in manifest["summary"]["error"]

    def test_nonlinear_decay_refuses_the_last_sine_row(self, tmp_path, monkeypatch, capsys):
        """Row k = ny vanishes at every node, so its transport term is
        exactly zero; the linear ladder still takes it.  The refusal comes
        at run time and is printed like a validation error."""
        from stripflow import solver

        calls = []
        monkeypatch.setattr(solver, "step", lambda state, cfg: calls.append(state))
        grid = ["--set", "grid.nx=64", "--set", "grid.ny=8", "--set", "profile.k=8"]
        code = run_cli(["nonlinear-decay", "--output-dir", str(tmp_path / "nl"), *grid])
        assert code == 2
        assert calls == []
        manifest = json.loads((tmp_path / "nl" / "manifest.json").read_text())
        assert manifest["outputs"] == []
        assert manifest["summary"]["error"].startswith("key 'profile.k': ")
        out = capsys.readouterr()
        assert out.err == f"configuration error: {manifest['summary']['error']}\n"
        assert "profile.k" in out.err and out.out == ""
        assert run_cli(["linear-decay-truncated", "--output-dir", str(tmp_path / "lin"),
                        *grid]) == 0

    def test_cfl_violation_exits_3_with_its_admissible_dt(self, tmp_path, capsys):
        """A trajectory failure reaches the manifest with its own cause."""
        from stripflow.config import parse_config
        from stripflow.errors import CflViolation
        from stripflow.solver import make_initial_data, trajectory

        settings = {
            "grid.nx": "64", "grid.ny": "8",
            "grid.half_width_lx": "314.1592653589793",
            "profile.amplitude": "1000.0", "stepper.dt": "5.0",
            "times.t_min": "10", "times.t_max": "1000",
        }
        args = ["nonlinear-decay", "--output-dir", str(tmp_path)]
        for key, value in settings.items():
            args += ["--set", f"{key}={value}"]
        assert run_cli(args) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == []
        error = manifest["summary"]["error"]
        assert error.startswith("CflViolation: dt=5 exceeds admissible")
        assert capsys.readouterr().err == f"run failed: {error}\n"

        doc = "\n".join(["experiment = nonlinear-decay"]
                        + [f"{k} = {v}" for k, v in settings.items()])
        cfg = parse_config(doc)
        state0, _ = make_initial_data(cfg.profile(), cfg.grid())
        with pytest.raises(CflViolation) as exc:
            list(trajectory(state0, cfg.stepper(), [1000.0]))
        assert 0 < exc.value.admissible_dt < 5.0
        assert f"{exc.value.admissible_dt:g}" in error
