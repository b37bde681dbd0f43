"""Time two checkouts against each other on one benchmark workload, in
alternating pairs of fresh processes.

Usage: ``python tools/pair_time.py PARENT [CHANGE] --workload NAME [--pairs
10] [--seed 3]``; CHANGE defaults to this checkout.  Each argument is the
root of a checkout, with ``perfbench/worker.py`` and
``perfbench/workloads.py``.

A run is one fresh ``python <checkout>/perfbench/worker.py`` process, untraced,
on the workload's config at the seed as the checkout's own ``workloads.py``
writes it, loaded by path as ``same_outputs.py`` loads it.  Every run has the
thread variables of ``perfbench/run.py`` at 1 and ``PYTHONDONTWRITEBYTECODE=1``,
and writes only to a temporary directory.  A pair is one run of each side;
the side that runs first alternates from pair to pair.

For ``wall_s``, ``setup_s``, the study time ``study_s`` = wall_s - setup_s
and ``peak_rss_mb`` it prints each side's median, the parent's spread (the
distance between its quartiles) and the number of pairs in which the change
is lower.  The last column is the verdict on a gain in the metric: ``gain``
when at least ten pairs ran, the change is lower in at least nine tenths of
them, ties counting for neither side, and its median is lower than the
parent's by more than the parent's spread; else ``no gain``.  It exits 1 when a run fails its workload
checks, which stops the timing, 2 on arguments it cannot use, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("wall_s", "setup_s", "study_s", "peak_rss_mb")
RUN_TIMEOUT_S = 120


def verdict(parent: list, change: list) -> dict:
    """The comparison of one metric over pairs, ``parent[i]`` against
    ``change[i]``, lower being better: each side's median, the parent's
    quartile spread, the pairs in which the change is lower, and whether
    that makes a gain."""
    quartiles = statistics.quantiles(parent, n=4)
    spread = quartiles[2] - quartiles[0]
    lower = sum(c < p for p, c in zip(parent, change))
    medians = statistics.median(parent), statistics.median(change)
    return {"parent": medians[0], "change": medians[1], "spread": spread,
            "lower": lower, "pairs": len(parent),
            "gain": (len(parent) >= 10 and lower >= math.ceil(0.9 * len(parent))
                     and medians[0] - medians[1] > spread)}


def run_once(checkout: Path, workload: str, seed: int, config: str, rep: Path,
             env: dict) -> dict:
    """One untraced worker run of ``checkout`` in the directory ``rep``, in
    the environment ``env``: its result, with ``study_s``; a run that fails
    its checks raises RuntimeError."""
    rep.mkdir(parents=True)
    (rep / "workload.cfg").write_text(config)
    result = rep / "result.json"
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "worker.py"), workload,
         str(seed), str(rep / "workload.cfg"), str(rep / "out"), "0", str(result)],
        cwd=rep, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if not result.exists():
        raise RuntimeError(f"{checkout}: worker exit code {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    res = json.loads(result.read_text())
    if res["failed"] or res["problems"]:
        raise RuntimeError(f"{checkout}: {res['failed']} of {res['attempted']} "
                           f"member runs failed: {res['problems']}")
    return {**res, "study_s": res["wall_s"] - res["setup_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    # imported here, not at the top: same_outputs puts perfbench/ on the
    # import path and turns bytecode off, which a module that imports this
    # file for `verdict` should not inherit
    from same_outputs import THREAD_VARS, load_workloads

    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for the parent's quartiles")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    configs = {}
    for side, checkout in sides.items():
        workloads = load_workloads(checkout)
        if args.workload not in workloads:
            parser.error(f"the {side} checkout {checkout} has no workload "
                         f"{args.workload!r}")
        configs[side] = workloads[args.workload].config(args.seed)
    env = {**os.environ, **{var: "1" for var in THREAD_VARS},
           "PYTHONDONTWRITEBYTECODE": "1"}
    samples = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                try:
                    res = run_once(sides[side], args.workload, args.seed,
                                   configs[side], Path(tmp) / f"pair{i}" / side, env)
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    print(f"error: pair {i}, {side}: {exc}", file=sys.stderr)
                    return 1
                samples[side].append(res)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} alternating pairs: "
          f"parent {sides['parent']}, change {sides['change']}")
    print(f"{'metric':<12}{'parent':>10}{'change':>10}{'spread':>10}"
          f"{'lower':>8}  verdict")
    for metric in METRICS:
        v = verdict(*([res[metric] for res in samples[side]] for side in sides))
        print(f"{metric:<12}{v['parent']:>10.4f}{v['change']:>10.4f}"
              f"{v['spread']:>10.4f}{v['lower']:>5}/{v['pairs']:<2}  "
              f"{'gain' if v['gain'] else 'no gain'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
