"""Command-line entry points: a subcommand per study of `STUDY_COMMANDS`,
each running the study skeleton of `harness`, and fit-decay.

A study subcommand exits with the `EXIT_CODES` entry of its outcome, or of
the halt of a run that the study needs to complete, and 2 on a config or
input error, with one ``error:`` line; fit-decay exits 0 or 2.  The config
file gives every experiment setting that its study reads, and ``--out``
(default ``out``) where the outputs go.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import harness
from .diagnostics import DECAY_WINDOW, fit_decay
from .evolve import RunOutcome

# a study's exit code by its outcome; a config or input error exits 2
EXIT_CODES = {
    RunOutcome.COMPLETED: 0,
    RunOutcome.BLOWUP: 10,
    RunOutcome.CHEMICAL_EXTINCTION: 11,
}


def _print_table(table) -> int:
    """Print a study's table ``(columns, rows)`` as its CSV holds it: the
    columns in order, then a line per row, numbers to 6 significant digits."""
    columns, rows = table
    lines = [columns, *([x if isinstance(x, str) else format(x, ".6g")
                         for x in row] for row in rows)]
    widths = [max(map(len, cells)) for cells in zip(*lines)]
    for line in lines:
        print("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip())
    return 0


def _print_run(result) -> int:
    outcome, message, records, decay, out_dir = result
    t_final = records[-1].t if records else 0.0   # t=0 halt
    print(f"outcome: {outcome.value}  ({len(records)} records, "
          f"t_final={t_final:g})")
    if message:
        print(message)
    _print_table(decay)
    print(f"artifacts in {out_dir}")
    return EXIT_CODES[outcome]


def _print_delta_sweep(result) -> int:
    table, decreasing = result
    _print_table(table)
    print(f"cauchy_decreasing: {decreasing}")
    return 0


# subcommand, study, study function, printer, help
STUDY_COMMANDS = (
    ("run", "single_run", harness.run_single, _print_run,
     "single run with diagnostics and decay fits"),
    ("sweep-delta", "delta_sweep", harness.run_delta_sweep, _print_delta_sweep,
     "mollifier-width Cauchy study"),
    ("refine", "refinement", harness.run_refinement, _print_table,
     "temporal and spatial order study"),
    ("xval", "cross_validate", harness.run_cross_validate, _print_table,
     "original vs transformed solver comparison"),
    ("scan-theta", "theta_scan", harness.run_theta_scan, _print_table,
     "amplitude ladder stability frontier"),
)


def _run_study(study, run_study, printer, args) -> int:
    cfg = harness.load_config(args.config)
    if cfg.study != study:
        raise harness.ConfigError("study", f"{cfg.study!r} given to "
                                  f"'{args.command}', which runs {study!r}")
    return printer(run_study(cfg, out_dir=args.out))


def cmd_fit_decay(args) -> int:
    try:
        window = tuple(float(x) for x in args.window.split(","))
        if len(window) != 2:
            raise ValueError(f"--window takes t_lo,t_hi, got {args.window!r}")
        fit = fit_decay(harness.read_series(args.csv, args.column), window)
    except (OSError, ValueError) as exc:   # unreadable CSV or bad window
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"quantity={args.column} window=[{fit.t_lo:g},{fit.t_hi:g}] "
          f"rate={fit.rate:.6g} prefactor={fit.prefactor:.6g} "
          f"residual={fit.residual:.3g} n={fit.n_samples}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemoflux",
        description="pseudo-spectral chemotaxis simulation and verification harness")
    subs = parser.add_subparsers(dest="command", required=True)

    for command, study, run_study, printer, text in STUDY_COMMANDS:
        p = subs.add_parser(command, help=text)
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(fn=partial(_run_study, study, run_study, printer))

    p = subs.add_parser("fit-decay", help="log-linear fit on a diagnostics column")
    p.add_argument("--csv", required=True, help="diagnostics CSV path")
    p.add_argument("--column", default="c_linf")
    p.add_argument("--window", default="{:g},{:g}".format(*DECAY_WINDOW),
                   help="t_lo,t_hi")
    p.set_defaults(fn=cmd_fit_decay)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (harness.ConfigError, harness.RunHalted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[exc.outcome] if isinstance(exc, harness.RunHalted) else 2


if __name__ == "__main__":
    raise SystemExit(main())
