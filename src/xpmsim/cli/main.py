"""Command-line entry point.

Usage: xpmsim <task> [flags]. Tasks produce one output file (coeffs and the
four figure sweeps) or run the acceptance suite (validate). Flags override
config-file keys, which override defaults; validate runs on the defaults
and refuses every flag but --out. Exit codes: 0 success, 1 a validation
criterion failed, 2 configuration or I/O problem, 3 a numerical
convergence guard tripped.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ..errors import AccuracyError, ConfigError, XpmsimError
from .config import FORMATS, TASKS, RunConfig, _parse_value, parse_config
from .output import emit
from .sweeps import run_task
from .validate import run_validate

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xpmsim",
        description="Metrics of photon-photon phase gates at finite bandwidth")
    parser.add_argument("task", choices=TASKS,
                        help="sweep to run, or 'validate' for the acceptance suite")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value config file (flags take precedence)")
    parser.add_argument("--out", metavar="PATH",
                        help="output path (default: <task>.<format>)")
    parser.add_argument("--format", choices=FORMATS,
                        help="output format (default csv)")
    parser.add_argument("--k0", metavar="LIST",
                        help="comma-separated k0 values for coeffs/fig2")
    parser.add_argument("--phi", metavar="SPEC",
                        help="phase axis min:max:n, or a comma list of "
                             "accumulated phases for fig4 curves")
    parser.add_argument("--profile", choices=("gaussian", "square"),
                        help="pulse profile shape")
    parser.add_argument("--grid-n", type=int, metavar="N",
                        help="points on the uniform core grid")
    return parser


def _apply_phi(overrides: dict, spec: str) -> None:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--phi range must be min:max:n, got {spec!r}")
        try:
            overrides["phi_min"] = float(parts[0])
            overrides["phi_max"] = float(parts[1])
            overrides["phi_n"] = int(parts[2])
        except ValueError:
            raise ConfigError(f"--phi range must be min:max:n, got {spec!r}")
    else:
        overrides["headon_phis"] = _parse_value(spec, "floats", "--phi")


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file plus flag overrides, flags winning."""
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            config = parse_config(fh.read())
    else:
        config = RunConfig(task=args.task)
    overrides: dict = {"task": args.task}
    if args.format is not None:
        overrides["output_format"] = args.format
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.k0 is not None:
        overrides["k0_values"] = _parse_value(args.k0, "floats", "--k0")
    if args.phi is not None:
        _apply_phi(overrides, args.phi)
    if args.profile is not None:
        overrides["profile_shape"] = args.profile
    if args.grid_n is not None:
        overrides["grid_core_n"] = args.grid_n
    return replace(config, **overrides)


def _validate(args: argparse.Namespace) -> int:
    """Run the acceptance suite, which reads no setting: every flag but --out is refused."""
    given = [f"--{name.replace('_', '-')}" for name, value in vars(args).items()
             if name not in ("task", "out") and value is not None]
    if given:
        raise ConfigError(f"validate runs on the defaults and takes no {', '.join(given)}")
    report = run_validate()
    sys.stdout.write(report.text)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.text)
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.task == "validate":
            return _validate(args)
        config = load_run_config(args)
        result = run_task(config)
        path = config.output_path or f"{config.task}.{config.output_format}"
        emit(result, config.output_format, path)
        sys.stdout.write(f"wrote {path}\n")
        return 0
    except AccuracyError as exc:
        sys.stderr.write(f"xpmsim: convergence failure: {exc}\n")
        return 3
    except (XpmsimError, OSError) as exc:
        sys.stderr.write(f"xpmsim: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
