"""Command-line entry points.

    cbwk run <config> [--out DIR] [--seeds N] [--parallelism P]
    cbwk sweep <config> --param {m|K|T} --values a,b,c [...]
    cbwk opt <config>
    cbwk plot <csv> --out FILE

Exit codes: 0 success; 1 configuration error, reported before any cell runs;
2 runtime failure, or a sweep in which any cell failed (its CSV and plot are
still written, and each failed cell is listed on stderr).
"""

import argparse
import os
import sys
from dataclasses import replace

from .errors import ConfigurationError
from .harness import (
    build_env,
    check_parallelism,
    parse_config,
    read_csv,
    render_plot,
    run_sweep,
    write_csv,
)
from .lp import exact_opt_fixed_context


def _load_config(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _apply_overrides(config, args):
    if args.seeds is not None:
        config = replace(config, seeds_count=args.seeds)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    return config


def _execute(config, parallelism: int) -> int:
    check_parallelism(parallelism)
    try:  # an unusable output directory is a configuration error, found before any cell runs
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output.dir: cannot create {config.output_dir!r}: {exc}") from exc
    result = run_sweep(config, parallelism=parallelism)
    csv_path = os.path.join(config.output_dir, "results.csv")
    svg_path = os.path.join(config.output_dir, "plot.svg")
    write_csv(result, csv_path)
    render_plot(result, svg_path)
    failures = [r for r in result.rows if r.error is not None]
    print(f"wrote {csv_path} ({len(result.rows)} rows) and {svg_path}")
    for r in failures:
        print(f"cell failed: {r.algorithm} {r.sweep_param}={r.sweep_value} "
              f"seed={r.seed}: {r.error}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} of {len(result.rows)} cells failed", file=sys.stderr)
        return 2
    return 0


def cmd_run(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    return _execute(config, args.parallelism)


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    try:
        values = tuple(int(v) for v in args.values.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigurationError(f"--values: {exc}") from exc
    config = replace(config, sweep_param=args.param, sweep_values=values)
    config = _apply_overrides(config, args)
    return _execute(config, args.parallelism)


def cmd_opt(args) -> int:
    config = _load_config(args.config)
    env = build_env(config)
    opt = exact_opt_fixed_context(env.expected_outcomes(), env.budget_rate)
    print(f"OPT = {opt!r}")
    print(f"T * OPT = {env.T * opt!r}")
    return 0


def cmd_plot(args) -> int:
    result = read_csv(args.csv)
    render_plot(result, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cbwk",
                                     description="Budgeted contextual bandit experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sweeping = argparse.ArgumentParser(add_help=False)  # the options run and sweep share
    sweeping.add_argument("--out", default=None)
    sweeping.add_argument("--seeds", type=int, default=None)
    sweeping.add_argument("--parallelism", type=int, default=1)

    p_run = sub.add_parser("run", parents=[sweeping],
                           help="run the experiment described by a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[sweeping],
                             help="run with an overridden sweep grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=("m", "K", "T"))
    p_sweep.add_argument("--values", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_opt = sub.add_parser("opt", help="print the exact per-round optimum")
    p_opt.add_argument("config")
    p_opt.set_defaults(func=cmd_opt)

    p_plot = sub.add_parser("plot", help="render an SVG from a results CSV")
    p_plot.add_argument("csv")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
