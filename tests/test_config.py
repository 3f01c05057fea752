"""Configuration document: strict parsing, defaults, round trips."""

import hashlib
import math

import pytest

from stripflow.config import (
    ExperimentConfig,
    parse_config,
    serialize_config,
    validate_config,
)
from stripflow.errors import ConfigError


class TestParse:
    def test_minimal_document_fills_defaults(self):
        cfg = parse_config("experiment = nu-star\n")
        assert cfg.experiment == "nu-star"
        assert cfg.grid_nx == 1024
        assert cfg.grid_nu == 1.0
        assert cfg.grid_half_width_lx == pytest.approx(200.0 * math.pi)
        assert cfg.stepper_scheme == "strang-rk2"

    def test_unknown_key_is_an_error(self):
        # the last two are constants of the method now, no longer keys
        for key in ("grid.viscocity", "stepper.cfl_safety", "stepper.dealias_fraction"):
            with pytest.raises(ConfigError, match="unknown key") as exc:
                parse_config(f"experiment = nu-star\n{key} = 1.0\n")
            assert exc.value.key == key

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("experiment = nu-star\nseed = 1\nseed = 2\n")

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("experiment = nu-star\n# fine\nnot a key value\n")

    @pytest.mark.parametrize("doc, match", [
        ("# c\n\nseed = 3\nnot a key value\n", "line 4: expected"),
        ("# c\n\nseed = 3\nseed = 4\n", "line 4: key 'seed': duplicate"),
        ("# c\n\nseed = 3\ngrid.viscocity = 1\n", "line 4: key 'grid.viscocity'"),
        ("# c\n\nseed = 3\ngrid.nx = many\n", "line 4: key 'grid.nx': cannot parse"),
    ], ids=["syntax", "duplicate", "unknown", "value"])
    def test_document_errors_cite_the_document_line_under_overrides(self, doc, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(doc, ["experiment=nu-star"])

    @pytest.mark.parametrize("assignment, key, match", [
        ("grid.nx=many", "grid.nx", "cannot parse"),
        ("viscocity=1.0", "viscocity", "unknown key"),
        ("=5", "=5", "expected KEY=VALUE"),
        ("seed", "seed", "expected KEY=VALUE"),
    ])
    def test_bad_override_names_itself_not_a_line(self, assignment, key, match):
        with pytest.raises(ConfigError, match=match) as exc:
            parse_config("experiment = nu-star\n", [assignment])
        assert exc.value.key == key
        assert exc.value.line is None
        assert "line" not in str(exc.value)

    def test_later_override_replaces_earlier_and_the_document(self):
        cfg = parse_config("experiment = nu-star\nseed = 1\n", ["seed=2", "seed=3"])
        assert cfg.seed == 3

    def test_replaced_document_value_is_never_parsed(self):
        cfg = parse_config("experiment = nu-star\ngrid.nx = many\n", ["grid.nx=64"])
        assert cfg.grid_nx == 64

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="grid.nx"):
            parse_config("experiment = nu-star\ngrid.nx = many\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("seed = 3\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(
            "# full line comment\n\nexperiment = nu-star  # trailing\nseed = 9\n"
        )
        assert cfg.seed == 9

    def test_float_list_parsing(self):
        cfg = parse_config("experiment = symbol-bounds\nbounds.nus = 0.01,0.5,1.0\n")
        assert cfg.bounds_nus == (0.01, 0.5, 1.0)


class TestValidation:
    def test_negative_viscosity_names_field(self):
        with pytest.raises(ConfigError, match="grid.nu"):
            parse_config("experiment = nu-star\ngrid.nu = -1.0\n")

    def test_odd_nx_names_field(self):
        with pytest.raises(ConfigError, match="grid.nx"):
            parse_config("experiment = nu-star\ngrid.nx = 77\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment = frobnicate\n")

    def test_bad_scheme(self):
        for scheme in ("euler", "strang-rk4"):
            with pytest.raises(ConfigError, match="scheme") as exc:
                parse_config(f"experiment = nonlinear-decay\nstepper.scheme = {scheme}\n")
            assert exc.value.key == "stepper.scheme"

    @pytest.mark.parametrize("key, value", [
        ("grid.half_width_lx", "0"),
        ("grid.ny", "0"),
        ("stepper.dt", "0"),
    ])
    def test_grid_and_stepper_preconditions_name_their_key(self, key, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"experiment = nonlinear-decay\n{key} = {value}\n")
        assert exc.value.key == key

    @pytest.mark.parametrize("key", [
        "grid.half_width_lx", "grid.nu", "stepper.dt", "profile.amplitude",
        "profile.xi_scale", "times.t_min", "times.t_max",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_names_its_key(self, key, value):
        with pytest.raises(ConfigError, match="finite") as exc:
            parse_config(f"experiment = kernel-integral\n{key} = {value}\n")
        assert exc.value.key == key

    @pytest.mark.parametrize("nus", ["0.01,nan", "inf", "1.0,-inf"])
    def test_non_finite_viscosity_entry(self, nus):
        with pytest.raises(ConfigError, match="finite") as exc:
            parse_config(f"experiment = symbol-bounds\nbounds.nus = {nus}\n")
        assert exc.value.key == "bounds.nus"

    def test_zero_amplitude(self):
        with pytest.raises(ConfigError, match="nonzero") as exc:
            parse_config("experiment = linear-decay-continuum\nprofile.amplitude = 0\n")
        assert exc.value.key == "profile.amplitude"

    def test_negative_amplitude_is_allowed(self):
        cfg = parse_config("experiment = linear-decay-continuum\nprofile.amplitude = -1e-4\n")
        assert cfg.profile_amplitude == -1e-4

    @pytest.mark.parametrize("nus", [",", ""])
    def test_empty_viscosity_list(self, nus):
        with pytest.raises(ConfigError, match="at least one") as exc:
            parse_config(f"experiment = symbol-bounds\nbounds.nus = {nus}\n")
        assert exc.value.key == "bounds.nus"

    @pytest.mark.parametrize("k", ["0", "9"])
    def test_profile_row_outside_the_grid(self, k):
        with pytest.raises(ConfigError, match="grid.ny = 8") as exc:
            parse_config(f"experiment = linear-decay-truncated\ngrid.ny = 8\nprofile.k = {k}\n")
        assert exc.value.key == "profile.k"

    def test_profile_row_at_the_last_grid_row(self):
        cfg = parse_config("experiment = linear-decay-truncated\ngrid.ny = 8\nprofile.k = 8\n")
        assert cfg.profile_k == 8

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="t_min"):
            parse_config("experiment = kernel-integral\ntimes.t_min = 100\ntimes.t_max = 10\n")


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        cfg = parse_config(
            "experiment = nonlinear-decay\n"
            "seed = 42\n"
            "grid.nx = 256\n"
            "grid.nu = 0.25\n"
            "profile.amplitude = 5e-5\n"
            "bounds.nus = 0.01,1.0\n"
        )
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg

    def test_defaults_round_trip(self):
        cfg = parse_config("experiment = energy-check\n")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_every_schema_key_serialized(self):
        cfg = ExperimentConfig(experiment="nu-star")
        validate_config(cfg)
        text = serialize_config(cfg)
        for key in ("grid.half_width_lx", "stepper.scheme",
                    "times.per_decade", "bounds.nus", "oracle.modes"):
            assert key in text

    def test_default_document_is_pinned(self):
        """The manifest config text and its hash must not move."""
        text = serialize_config(parse_config("experiment = nu-star\n"))
        assert text == (
            "experiment = nu-star\n"
            "output_dir = out\n"
            "seed = 0\n"
            "grid.half_width_lx = 628.3185307179587\n"
            "grid.nx = 1024\n"
            "grid.ny = 32\n"
            "grid.nu = 1.0\n"
            "stepper.dt = 0.5\n"
            "stepper.scheme = strang-rk2\n"
            "profile.k = 1\n"
            "profile.amplitude = 0.0001\n"
            "profile.xi_scale = 1.0\n"
            "times.t_min = 10.0\n"
            "times.t_max = 10000.0\n"
            "times.per_decade = 12\n"
            "bounds.samples = 1000\n"
            "bounds.nus = 0.01,1.0\n"
            "oracle.modes = 1000\n"
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f8a7870f91dd9fc1adc5210e50a0bd5690c63eb45bc96e7bb4e898e401be1ecb"
        )
