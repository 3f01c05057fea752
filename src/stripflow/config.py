"""Experiment configuration: a strict plain-text key/value document.

Format: one ``key = value`` per line, ``#`` starts a comment, keys use
dotted sections (``grid.nx``).  The keys are derived from the fields of
``ExperimentConfig``: a section prefix becomes the dotted key
(``grid_nx`` -> ``grid.nx``), other names stay as they are
(``output_dir``), and the annotation picks the parser and formatter.
Unknown keys are errors (a silent typo in nu or the amplitude would
invalidate smallness assumptions unnoticed); defaults apply only to absent
keys and are echoed back by serialization, so serialize(parse(text))
round-trips to an equal config.  ``parse_config`` is the only reader of
the format: it also applies ``key=value`` overrides (the command line's
flags) on top of the document, so errors in the document cite its own
line numbers and errors in an override name the override.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .fields import InitialProfile, ProfileComponent, StripGrid
from .solver import StepperConfig

EXPERIMENTS = (
    "linear-decay-continuum",
    "linear-decay-truncated",
    "nonlinear-decay",
    "symbol-bounds",
    "kernel-integral",
    "nu-star",
    "energy-check",
    "oracle-suite",
)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    output_dir: str = "out"
    seed: int = 0
    # grid
    grid_half_width_lx: float = 200.0 * math.pi
    grid_nx: int = 1024
    grid_ny: int = 32
    grid_nu: float = 1.0
    # stepper
    stepper_dt: float = 0.5
    # the only scheme; the key stays so documents that name it still parse
    stepper_scheme: str = "strang-rk2"
    # initial profile (single sine row, Gaussian xi-envelope)
    profile_k: int = 1
    profile_amplitude: float = 1e-4
    profile_xi_scale: float = 1.0
    # time sampling / fit window
    times_t_min: float = 10.0
    times_t_max: float = 1e4
    times_per_decade: int = 12
    # symbol-bound sampling
    bounds_samples: int = 1000
    bounds_nus: tuple = (0.01, 1.0)
    # oracle suite
    oracle_modes: int = 1000

    def grid(self) -> StripGrid:
        return StripGrid(
            half_width_lx=self.grid_half_width_lx,
            nx=self.grid_nx,
            ny=self.grid_ny,
            nu=self.grid_nu,
        )

    def stepper(self) -> StepperConfig:
        return StepperConfig(dt=self.stepper_dt)

    def profile(self) -> InitialProfile:
        return InitialProfile(
            theta=(
                ProfileComponent(
                    k=self.profile_k,
                    amplitude=self.profile_amplitude,
                    xi_scale=self.profile_xi_scale,
                ),
            )
        )

    def sample_times(self):
        n = max(int(round(self.times_per_decade
                          * math.log10(self.times_t_max / self.times_t_min))), 8) + 1
        return np.logspace(
            math.log10(self.times_t_min), math.log10(self.times_t_max), n
        )


def _parse_float_list(text):
    return tuple(float(part) for part in text.split(",") if part.strip())


#: annotation -> (parser, formatter)
_CODECS = {
    str: (str, str),
    int: (int, repr),
    float: (float, repr),
    tuple: (_parse_float_list, lambda v: ",".join(repr(x) for x in v)),
}
_SECTIONS = ("grid", "stepper", "profile", "times", "bounds", "oracle")


def _key(name):
    section, _, rest = name.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else name


#: document key -> (attribute, parser, formatter), in field order
SCHEMA = {
    _key(f.name): (f.name, *_CODECS[f.type]) for f in fields(ExperimentConfig)
}


def parse_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse and validate a configuration document.

    ``overrides`` are ``key=value`` strings applied after the document, in
    order, so the last one given for a key wins.  Each effective value is
    parsed once: a document value that an override replaces is never read.

    Raises:
        ConfigError: syntax error (with the document's line number), unknown
            or duplicate key, malformed override, type mismatch, or a value
            violating a module precondition (message names the offending key;
            an override names itself instead of a line).
    """
    entries = {}  # key -> (raw value, document line, or None for an override)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = _split(line)
        if not sep:
            raise ConfigError("expected 'key = value'", line=lineno)
        if key not in SCHEMA:
            raise ConfigError("unknown key", key=key, line=lineno)
        if key in entries:
            raise ConfigError("duplicate key", key=key, line=lineno)
        entries[key] = (val, lineno)
    for assignment in overrides:
        key, sep, val = _split(assignment)
        if not sep or not key:
            raise ConfigError("expected KEY=VALUE", key=assignment)
        if key not in SCHEMA:
            raise ConfigError("unknown key", key=key)
        entries[key] = (val, None)

    values = {}
    for key, (val, line) in entries.items():
        attr, parser, _ = SCHEMA[key]
        try:
            values[attr] = parser(val)
        except ValueError:
            raise ConfigError(f"cannot parse value {val!r}", key=key, line=line)

    if "experiment" not in values:
        raise ConfigError("missing required key", key="experiment")
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def _split(assignment):
    key, sep, val = assignment.partition("=")
    return key.strip(), sep, val.strip()


def validate_config(cfg: ExperimentConfig):
    """Check every numeric parameter against module preconditions."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}",
            key="experiment",
        )
    for key, (attr, _, _) in SCHEMA.items():
        value = getattr(cfg, attr)
        entries = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(x) for x in entries if isinstance(x, float)):
            raise ConfigError(f"value must be finite, got {value!r}", key=key)
    try:
        cfg.grid()
    except ValueError as exc:
        raise ConfigError(str(exc), key=_field_key(str(exc), "grid"))
    try:
        cfg.stepper()
    except ValueError as exc:
        raise ConfigError(str(exc), key=_field_key(str(exc), "stepper"))
    if cfg.stepper_scheme != "strang-rk2":
        raise ConfigError("scheme must be 'strang-rk2'", key="stepper.scheme")
    if not 1 <= cfg.profile_k <= cfg.grid_ny:
        raise ConfigError(
            f"profile k must be in [1, grid.ny = {cfg.grid_ny}]", key="profile.k"
        )
    if cfg.profile_amplitude == 0:
        raise ConfigError("amplitude must be nonzero", key="profile.amplitude")
    if not cfg.profile_xi_scale > 0:
        raise ConfigError("xi_scale must be > 0", key="profile.xi_scale")
    if not 0 < cfg.times_t_min < cfg.times_t_max:
        raise ConfigError("need 0 < t_min < t_max", key="times.t_min")
    if cfg.times_per_decade < 1:
        raise ConfigError("per_decade must be >= 1", key="times.per_decade")
    if cfg.bounds_samples < 1:
        raise ConfigError("samples must be >= 1", key="bounds.samples")
    if not cfg.bounds_nus:
        raise ConfigError("need at least one viscosity", key="bounds.nus")
    if any(nu <= 0 for nu in cfg.bounds_nus):
        raise ConfigError("viscosities must be > 0", key="bounds.nus")
    if cfg.oracle_modes < 1:
        raise ConfigError("modes must be >= 1", key="oracle.modes")


def _field_key(message, section):
    """The key a module precondition names by the first word of its message."""
    key = f"{section}.{message.split(' ', 1)[0]}"
    return key if key in SCHEMA else section


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form with every key present (defaults filled in)."""
    lines = []
    for key, (attr, _, fmt) in SCHEMA.items():
        lines.append(f"{key} = {fmt(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


def config_as_dict(cfg: ExperimentConfig) -> dict:
    return {key: getattr(cfg, attr) for key, (attr, _, _) in SCHEMA.items()}
