"""Command-line entry point: one subcommand per experiment.

Configuration comes from an optional document (--config), overridden by
repeatable --set key=value flags plus the --output-dir / --seed shortcuts,
which count as given after every --set.  A flag always wins over the file,
the last flag wins when a key is given more than once, and every override
is recorded in the manifest.  Exit status: 0 success, 2 configuration/
validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import EXPERIMENTS, SCHEMA, parse_config
from .errors import ConfigError
from .experiments import EXIT_CONFIG, run


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stripflow",
        description="Spectral decay-rate verification experiments on the strip",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, help="configuration document")
        p.add_argument("--output-dir", help="artifact directory (overrides config)")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
        p.add_argument(
            "--set",
            dest="assignments",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def _effective_config(args):
    lines = []
    if args.config is not None:
        lines.append(Path(args.config).read_text().rstrip("\n"))

    overrides = list(args.assignments)
    if args.output_dir is not None:
        overrides.append(f"output_dir={args.output_dir}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    doc_lines = {}
    for assignment in overrides:
        if "=" not in assignment:
            raise ConfigError("expected KEY=VALUE", key=assignment)
        key, _, value = assignment.partition("=")
        # a later flag for the same key replaces an earlier one
        doc_lines[key.strip()] = f"{key.strip()} = {value.strip()}"

    # flags win: strip overridden keys from the file document
    merged = []
    for chunk in lines:
        for raw in chunk.splitlines():
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            key = stripped.split("=", 1)[0].strip()
            if key in doc_lines or key == "experiment":
                continue
            merged.append(raw)
    merged.append(f"experiment = {args.experiment}")
    merged.extend(doc_lines.values())

    for key in doc_lines:
        if key and key not in SCHEMA:
            raise ConfigError("unknown key", key=key)
    return parse_config("\n".join(merged)), overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, overrides = _effective_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, overrides=overrides)


if __name__ == "__main__":
    sys.exit(main())
