"""Command-line entry point: one subcommand per experiment.

Configuration comes from an optional document (--config), overridden by
repeatable --set key=value flags plus the --output-dir / --seed shortcuts,
which count as given after every --set; the subcommand counts as given
after every flag, so it replaces any ``experiment`` line or flag.  A flag
always wins over the file, the last flag wins when a key is given more
than once, and every override is recorded in the manifest.  The document and
the flags are handed to ``config.parse_config`` unchanged, so an error in
the file cites the file's line and an error in a flag names the flag.
Exit status: 0 success, 2 configuration/validation failure, 3 numerical
failure, 4 a failed verdict (the summary's ``pass`` is false, as
``oracle-suite`` writes it).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import EXPERIMENTS, parse_config
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
    text = "" if args.config is None else Path(args.config).read_text()
    overrides = list(args.assignments)
    if args.output_dir is not None:
        overrides.append(f"output_dir={args.output_dir}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    # the subcommand counts as given after every flag
    cfg = parse_config(text, overrides + [f"experiment={args.experiment}"])
    return cfg, overrides


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
