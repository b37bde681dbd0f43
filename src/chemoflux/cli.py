"""Command-line entry points for the experiment harness.

Subcommands: one per study of `STUDY_COMMANDS` (run, sweep-delta, refine,
xval, scan-theta) and fit-decay.  A study subcommand exits 0 on
completion, 10 on blow-up and 11 on chemical extinction of the single run
or of any member run the study needs to complete (with one ``error:``
line), and 2 with one ``error:`` line on a config or other input error;
fit-decay exits 0 or 2.  The config's ``study`` key must name the
subcommand's study, only ``single_run`` reads ``mode`` and
``snapshot_times``, and ``threads`` is at least 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial

from . import harness
from .diagnostics import fit_decay
from .evolve import EXIT_CODES


def _print_run(result) -> int:
    traj, fits, out_dir = result
    t_final = traj.records[-1].t if traj.records else 0.0   # t=0 halt
    print(f"outcome: {traj.outcome.value}  ({len(traj.records)} records, "
          f"t_final={t_final:g})")
    if traj.message:
        print(traj.message)
    for fit, ref in fits:
        extra = f" (reference {ref:g})" if ref is not None else ""
        print(f"decay {fit.quantity}: rate={fit.rate:.4f} "
              f"residual={fit.residual:.3g}{extra}")
    print(f"artifacts in {out_dir}")
    return EXIT_CODES[traj.outcome]


def _print_delta_sweep(result) -> int:
    rows, decreasing = result
    print("delta_coarse  delta_fine  du_l2        dv_l2")
    for d1, d2, du, dv in rows:
        print(f"{d1:<12.5g}  {d2:<10.5g}  {du:<11.5g}  {dv:<11.5g}")
    print(f"cauchy_decreasing: {decreasing}")
    return 0


def _print_refinement(rows) -> int:
    for kind, columns, fmt in (("temporal", "dt, error", "<10.3g"),
                               ("spatial", "N, error vs finest", "<10d")):
        print(f"{kind}: {columns}, observed order")
        for _, param, err, order in (r for r in rows if r[0] == kind):
            print(f"  {param:{fmt}} {err:<12.5g} {order:.3f}")
    return 0


def _print_cross_validate(rows) -> int:
    print("N     dt        max|u_orig-u_transf|  max|v(c)-v|")
    for n, dt, du, dv in rows:
        print(f"{n:<5d} {dt:<9.4g} {du:<20.6g} {dv:<12.6g}")
    return 0


def _print_theta_scan(rows) -> int:
    print("amplitude  theta0      M           outcome             a1<=1.5th  window")
    for amp, th, m, label, _dec, _a1, _bound, ok1, ok34 in rows:
        print(f"{amp:<9.4g}  {th:<10.4g}  {m:<10.4g}  {label:<18s}  "
              f"{str(ok1):<9s}  {ok34}")
    return 0


# subcommand, study, study function, printer, help
STUDY_COMMANDS = (
    ("run", "single_run", harness.run_single, _print_run,
     "single run with diagnostics and decay fits"),
    ("sweep-delta", "delta_sweep", harness.run_delta_sweep, _print_delta_sweep,
     "mollifier-width Cauchy study"),
    ("refine", "refinement", harness.run_refinement, _print_refinement,
     "temporal and spatial order study"),
    ("xval", "cross_validate", harness.run_cross_validate, _print_cross_validate,
     "original vs transformed solver comparison"),
    ("scan-theta", "theta_scan", harness.run_theta_scan, _print_theta_scan,
     "amplitude ladder stability frontier"),
)


def _run_study(study, run_study, printer, args) -> int:
    cfg = harness.load_config(args.config)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if getattr(args, "snapshot_times", None):
        cfg = replace(cfg, snapshot_times=harness.parse_value(
            "snapshot_times", args.snapshot_times))
    if cfg.study != study:
        raise harness.ConfigError("study", f"{cfg.study!r} given to "
                                  f"'{args.command}', which runs {study!r}")
    if cfg.threads < 1:
        raise harness.ConfigError("threads", f"must be at least 1, got {cfg.threads}")
    for key in ("mode", "snapshot_times"):   # set away from the dataclass default
        if study != "single_run" and getattr(cfg, key) != getattr(
                harness.ExperimentConfig, key):
            raise harness.ConfigError(key, f"is read only by single_run, not {study}")
    return printer(run_study(cfg, out_dir=args.out))


def _read_series(path, column) -> list:
    """(t, value) pairs of one column of a chemoflux CSV table."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",") if lines else []
    for name in ("t", column):
        if name not in header:
            raise ValueError(f"column {name!r} not found in {path}")
    i, j = header.index("t"), header.index(column)
    return [(float(p[i]), float(p[j])) for p in (ln.split(",") for ln in lines[1:])]


def cmd_fit_decay(args) -> int:
    try:
        window = tuple(float(x) for x in args.window.split(","))
        if len(window) != 2:
            raise ValueError(f"--window takes t_lo,t_hi, got {args.window!r}")
        fit = fit_decay(_read_series(args.csv, args.column), window,
                        quantity=args.column)
    except (OSError, ValueError) as exc:   # unreadable CSV or bad window
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"quantity={fit.quantity} window=[{fit.t_lo:g},{fit.t_hi:g}] "
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
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=None,
                       help="worker cap for sweep studies (1 = reproducible)")
        if study == "single_run":
            p.add_argument("--snapshot-times", default=None,
                           help="comma-separated times for CFX1 snapshots")
        p.set_defaults(fn=partial(_run_study, study, run_study, printer))

    p = subs.add_parser("fit-decay", help="log-linear fit on a diagnostics column")
    p.add_argument("--csv", required=True, help="diagnostics CSV path")
    p.add_argument("--column", default="c_linf")
    p.add_argument("--window", default="2,20", help="t_lo,t_hi")
    p.set_defaults(fn=cmd_fit_decay)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (harness.ConfigError, harness.RunHalted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[exc.outcome] if isinstance(exc, harness.RunHalted) else 2


if __name__ == "__main__":
    raise SystemExit(main())
