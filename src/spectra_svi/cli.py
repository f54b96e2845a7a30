"""Command-line interface.

Subcommands:
    run    execute an experiment grid from a config file or named preset
    check  run the built-in invariant suite
    plot   render an SVG chart from a previously written CSV
    demo   shorthand for `run --preset demo`

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 invariant-suite failure. The environment variable SPECTRA_SVI_SEED
overrides the configured base seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness, svgplot
from .checks import run_checks
from .errors import ConfigError, NumericalFailure, SpectraSviError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECKS = 3


def _apply_env_seed(config: harness.ExperimentConfig) -> harness.ExperimentConfig:
    env = os.environ.get(harness.SEED_ENV_VAR)
    if env is None:
        return config
    try:
        seed = int(env)
    except ValueError:
        raise ConfigError(
            f"{harness.SEED_ENV_VAR} must be an integer, got {env!r}")
    return replace(config, base_seed=seed)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.config:
        config = harness.parse_config(args.config)
        stem = "results"
    else:
        config = harness.preset_config(args.preset)
        stem = args.preset
    config = _apply_env_seed(config)

    def warn(message: str) -> None:
        print(f"warning: {message}", file=sys.stderr)

    grid = harness.run_grid(config, threads=args.threads)
    for failure in grid.failures:
        warn(failure)
    keys = [(method, path) for method, path, _ in grid.rates]
    if len(set(keys)) < len(keys):
        warn("throughput.csv rows of cells that differ only in antennas, "
             "sigma or lambda share their (method, player, path, iter) "
             "keys; see the README")
    paths = harness.write_outputs(grid, config, args.out, stem)
    if grid.records:
        svg_path = os.path.join(args.out, f"{stem}.svg")
        svgplot.render_svg(grid.records, svg_path)
        paths["svg"] = svg_path
    else:
        print("no gap records: skipped the SVG plot", file=sys.stderr)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    if grid.failures:
        print(f"{len(grid.failures)} cell(s) failed; partial results written",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_check(_: argparse.Namespace) -> int:
    results = run_checks()
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if not r.ok)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_CHECKS if failed else EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    records = harness.read_csv(args.csv)
    if not records:
        raise ConfigError(f"{args.csv}: no gap records to plot")
    svgplot.render_svg(records, args.out_svg)
    print(f"wrote {args.out_svg}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectra-svi",
        description="Stochastic variational inequality solvers over PSD "
                    "trace-constrained blocks, with a MIMO throughput-game "
                    "experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment grid")
    source = run_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH",
                        help="experiment config file (key = value sections)")
    source.add_argument("--preset", choices=harness.PRESETS,
                        help="named experiment preset")

    sub.add_parser("check", help="run the built-in invariant suite")

    plot_p = sub.add_parser("plot", help="render an SVG from a gap CSV")
    plot_p.add_argument("csv", help="CSV produced by `run`")
    plot_p.add_argument("out_svg", help="output SVG path")

    demo_p = sub.add_parser("demo", help="run the demo preset")
    for grid_p in (run_p, demo_p):
        grid_p.add_argument("--out", default="results", metavar="DIR",
                            help="output directory (default: results)")
        grid_p.add_argument("--threads", type=int, default=1, metavar="N",
                            help="forked worker processes, Linux only; "
                                 "0 = one per usable CPU (default: 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo":
        args.config = None
        args.preset = "demo"
        args.command = "run"
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_plot(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpectraSviError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
