"""Command-line entry points for the experiment harness.

Subcommands: run, sweep-delta, refine, xval, scan-theta, fit-decay.
A single run exits 0 on completion, 10 on blow-up, 11 on chemical
extinction; config errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .diagnostics import fit_decay


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to a config file")
    sub.add_argument("--out", default=None, help="output directory override")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker cap for sweep studies (1 = reproducible)")


def _load(args) -> harness.ExperimentConfig:
    cfg = harness.load_config(args.config)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    if getattr(args, "snapshot_times", None):
        times = tuple(float(t) for t in args.snapshot_times.split(","))
        cfg = replace(cfg, snapshot_times=times)
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args)
    result = harness.run_single(cfg, out_dir=args.out)
    traj = result.trajectory
    t_final = traj.records[-1].t if traj.records else 0.0   # t=0 extinction
    print(f"outcome: {result.outcome.value}  ({len(traj.records)} records, "
          f"t_final={t_final:g})")
    if traj.message:
        print(traj.message)
    for fit, ref in result.fits:
        extra = f" (reference {ref:g})" if ref is not None else ""
        print(f"decay {fit.quantity}: rate={fit.rate:.4f} "
              f"residual={fit.residual:.3g}{extra}")
    print(f"artifacts in {result.out_dir}")
    return result.exit_code


def cmd_sweep_delta(args) -> int:
    result = harness.run_delta_sweep(_load(args), out_dir=args.out)
    print("delta_coarse  delta_fine  du_l2        dv_l2")
    for d1, d2, du, dv in result.rows:
        print(f"{d1:<12.5g}  {d2:<10.5g}  {du:<11.5g}  {dv:<11.5g}")
    print(f"cauchy_decreasing: {result.cauchy_decreasing}")
    return 0


def cmd_refine(args) -> int:
    result = harness.run_refinement(_load(args), out_dir=args.out)
    print("temporal: dt, error, observed order")
    for dt, err, order in result.temporal_rows:
        print(f"  {dt:<10.3g} {err:<12.5g} {order:.3f}")
    print("spatial: N, error vs finest, observed order")
    for n, err, order in result.spatial_rows:
        print(f"  {n:<10d} {err:<12.5g} {order:.3f}")
    return 0


def cmd_xval(args) -> int:
    result = harness.run_cross_validate(_load(args), out_dir=args.out)
    print("N     dt        max|u_orig-u_transf|  max|v(c)-v|")
    for n, dt, du, dv in result.rows:
        print(f"{n:<5d} {dt:<9.4g} {du:<20.6g} {dv:<12.6g}")
    return 0


def cmd_scan_theta(args) -> int:
    result = harness.run_theta_scan(_load(args), out_dir=args.out)
    print("amplitude  theta0      M           outcome             a1<=1.5th  window")
    for amp, th, m, label, _dec, _a1, _bound, ok1, ok34, _msg in result.rows:
        print(f"{amp:<9.4g}  {th:<10.4g}  {m:<10.4g}  {label:<18s}  "
              f"{str(ok1):<9s}  {ok34}")
    return 0


def cmd_fit_decay(args) -> int:
    lo, hi = (float(x) for x in args.window.split(","))
    series = []
    with open(args.csv) as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                try:
                    t_idx = header.index("t")
                    col_idx = header.index(args.column)
                except ValueError:
                    print(f"column {args.column!r} not found in {args.csv}",
                          file=sys.stderr)
                    return 2
                continue
            parts = line.split(",")
            series.append((float(parts[t_idx]), float(parts[col_idx])))
    fit = fit_decay(series, (lo, hi), quantity=args.column)
    print(f"quantity={fit.quantity} window=[{fit.t_lo:g},{fit.t_hi:g}] "
          f"rate={fit.rate:.6g} prefactor={fit.prefactor:.6g} "
          f"residual={fit.residual:.3g} n={fit.n_samples}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chemoflux",
        description="pseudo-spectral chemotaxis simulation and verification harness")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("run", help="single run with diagnostics and decay fits")
    _add_common(p)
    p.add_argument("--snapshot-times", default=None,
                   help="comma-separated times for CFX1 snapshots")
    p.set_defaults(fn=cmd_run)

    p = subs.add_parser("sweep-delta", help="mollifier-width Cauchy study")
    _add_common(p)
    p.set_defaults(fn=cmd_sweep_delta)

    p = subs.add_parser("refine", help="temporal and spatial order study")
    _add_common(p)
    p.set_defaults(fn=cmd_refine)

    p = subs.add_parser("xval", help="original vs transformed solver comparison")
    _add_common(p)
    p.set_defaults(fn=cmd_xval)

    p = subs.add_parser("scan-theta", help="amplitude ladder stability frontier")
    _add_common(p)
    p.set_defaults(fn=cmd_scan_theta)

    p = subs.add_parser("fit-decay", help="log-linear fit on a diagnostics column")
    p.add_argument("--csv", required=True, help="diagnostics CSV path")
    p.add_argument("--column", default="c_linf")
    p.add_argument("--window", default="2,20", help="t_lo,t_hi")
    p.set_defaults(fn=cmd_fit_decay)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
