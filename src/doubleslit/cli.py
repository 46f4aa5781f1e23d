"""Command-line entry point.

Runs the simulation pipeline for one or all qubit behaviors and writes the
requested artifacts: CSV profiles, SVG plots, transition-mask exports, and
a validation report.  Exit codes: 0 success, 1 computation or I/O error,
2 validation failure (with --check) or usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .analysis import validate
from .physics import ConfigError, ExperimentConfig, GeometryMode, SimulationError
from .propagation import simulate_all
from .qubit import QubitBehavior, TransitionMask
from .reporting import (CONFIG_FILE_KEYS, read_config_file, write_mask_file,
                        write_profile_csv, write_profile_svg, write_report)

__all__ = ["RunRequest", "parse_args", "run", "main"]

MASK_EXPORT_N = 8  # small enough to read, large enough to show the block structure


@dataclass(frozen=True)
class RunRequest:
    """A validated CLI invocation: behaviors to run, config, and outputs."""

    config: ExperimentConfig
    behaviors: tuple[QubitBehavior, ...]
    csv_path: Optional[Path] = None
    svg_path: Optional[Path] = None
    masks_dir: Optional[Path] = None
    report_path: Optional[Path] = None
    check: bool = False


@functools.cache     # built on a process's first parse, then only read
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubleslit",
        description="Double-slit electron simulator with an environmental "
                    "which-path qubit (behaviors: none, remembers, forgets).",
    )
    parser.add_argument("--qubit", choices=["none", "remembers", "forgets", "all"],
                        default="all", help="qubit behavior to simulate (default: all)")
    parser.add_argument("--n", type=int, default=None, metavar="N",
                        help="number of coarse-grained positions, even (default: 2000)")
    parser.add_argument("--geometry", choices=["corrected", "paper"], default=None,
                        help="upper-slit placement rule (default: corrected)")
    parser.add_argument("--csv", type=Path, default=None, metavar="PATH",
                        help="write the intensity profile(s) as CSV")
    parser.add_argument("--svg", type=Path, default=None, metavar="PATH",
                        help="write the intensity profile(s) as an SVG plot")
    parser.add_argument("--masks", type=Path, default=None, metavar="DIR",
                        help="write transition-mask text exports into DIR")
    parser.add_argument("--report", type=Path, default=None, metavar="PATH",
                        help="write the validation report (JSON for .json paths, "
                             "flat text otherwise); requires --qubit all")
    parser.add_argument("--check", action="store_true",
                        help="run the validation checks and exit 2 if any fails; "
                             "requires --qubit all")
    parser.add_argument("--config", type=Path, default=None, metavar="PATH",
                        help=f"flat key=value config file (keys: {', '.join(CONFIG_FILE_KEYS)}); "
                             "flags override file values")
    parser.add_argument("--threads", type=int, default=1, metavar="T",
                        help="accepted and ignored: the slit sums are matrix products "
                             "on BLAS's own threads, and the output is bitwise "
                             "independent of T (default: 1)")
    return parser


def parse_args(argv) -> RunRequest:
    """Parse and validate CLI arguments into a RunRequest.

    Defaults are the reference experiment constants.  Invalid values and
    flag conflicts terminate with a usage error (exit code 2).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)

    overrides: dict = {}
    if args.config is not None:
        try:
            overrides.update(read_config_file(args.config))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    if args.n is not None:
        overrides["n_positions"] = args.n
    if args.geometry is not None:
        overrides["geometry_mode"] = GeometryMode(args.geometry)

    try:
        config = ExperimentConfig(**overrides)
    except ConfigError as exc:
        parser.error(str(exc))

    behaviors = tuple(QubitBehavior) if args.qubit == "all" else (QubitBehavior(args.qubit),)

    wants_validation = args.check or args.report is not None
    if wants_validation and len(behaviors) != len(QubitBehavior):
        parser.error("--report/--check need all three behaviors; use --qubit all")
    if not (args.csv or args.svg or args.masks or wants_validation):
        parser.error("no output requested; pass at least one of "
                     "--csv/--svg/--masks/--report/--check")
    if args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")

    return RunRequest(config=config, behaviors=behaviors, csv_path=args.csv,
                      svg_path=args.svg, masks_dir=args.masks, report_path=args.report,
                      check=args.check)


def _per_behavior_path(path: Path, behavior: QubitBehavior, multiple: bool) -> Path:
    if not multiple:
        return path
    return path.with_name(f"{path.stem}_{behavior.value}{path.suffix}")


def run(request: RunRequest) -> int:
    """Execute a RunRequest; returns the process exit code."""
    try:
        profiles = simulate_all(request.config, behaviors=request.behaviors)
        multiple = len(request.behaviors) > 1

        for behavior, profile in profiles.items():
            if request.csv_path is not None:
                write_profile_csv(profile, _per_behavior_path(request.csv_path,
                                                              behavior, multiple))
            if request.svg_path is not None:
                write_profile_svg(profile, _per_behavior_path(request.svg_path,
                                                              behavior, multiple))

        if request.masks_dir is not None:
            request.masks_dir.mkdir(parents=True, exist_ok=True)
            for behavior in request.behaviors:
                mask = TransitionMask(behavior, MASK_EXPORT_N)
                write_mask_file(mask, request.masks_dir / f"mask_{behavior.value}.txt")

        if request.check or request.report_path is not None:
            report = validate(profiles, request.config)
            sys.stdout.write(report.to_text())
            if request.report_path is not None:
                write_report(report, request.report_path)
            if request.check and not report.passed:
                failed = [c.name for c in report.checks if not c.passed]
                print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
                return 2
        return 0
    except (SimulationError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(parse_args(argv))

