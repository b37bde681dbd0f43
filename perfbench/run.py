"""chemoflux study benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S] [--out FILE]

Each repetition runs one workload (see workloads.py) in a fresh worker
process, so that import time and peak memory are those of one study.  A run
first makes one untimed warm-up repetition at the default seed, whose
flagship diagnostics are also compared with the checked-in reference, then
repeats the workload at ``--seed`` until ``--seconds`` are used, starting at
least three repetitions with ``--trace 0``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json over the
repetitions: the minimum of each time and the median of peak memory.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics as medians over the traced ones; ``trace.overhead_s`` is
the median over back-to-back pairs of the traced minus the untraced wall
time.
Either way the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (member runs of the studies, the
warm-up included) and ``metrics``.  ``--report`` runs every workload both
ways and prints every metric, including the per-layer times that only one
workload produces, and writes them with the environment to ``--out``.
Scratch output goes to .perfbench_work/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import LAYER_UNITS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
# End-to-end metric -> the statistic over a run's repetitions that is
# reported.  Times report their minimum: on a shared host the speed of the
# whole machine drifts by about +-20% over tens of seconds, which moves a
# median over a run as much, while the fastest repetition moves far less
# (see README.md, "Noise and bounds").
END_TO_END = {"wall_s": "min", "setup_s": "min", "peak_rss_mb": "median"}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        revision = git.stdout.strip() if git.returncode == 0 else "unknown (no git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown (git not available)"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "git": revision,
            "threads": {var: "1" for var in THREAD_VARS}}


def run_worker(workload, seed: int, trace: int, tag: str) -> dict:
    """One repetition in a fresh process; a crash counts as all members failed."""
    rep = WORK / workload.name / tag
    rep.mkdir(parents=True)
    config, result = rep / "workload.cfg", rep / "result.json"
    config.write_text(workload.config(seed))
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    cmd = [sys.executable, str(HERE / "worker.py"), workload.name, str(seed),
           str(config), str(rep / "out"), str(trace), str(result)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        detail = proc.stderr.strip()[-2000:] or f"worker exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        detail = f"worker exceeded {CHILD_TIMEOUT_S} s"
    if result.exists():
        return json.loads(result.read_text())
    return {"attempted": workload.members, "failed": workload.members,
            "problems": [detail]}


def summary(values: list, statistic: str = "median") -> dict:
    """``value`` is the reported statistic; the others are printed beside it."""
    out = {"median": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    return {"value": out[statistic], "statistic": statistic, **out}


def measure(workload, seed: int, seconds: float, trace: int) -> dict:
    shutil.rmtree(WORK / workload.name, ignore_errors=True)
    reps = [run_worker(workload, DEFAULT_SEED, 0, "warmup")]
    start = time.perf_counter()
    rounds = 0
    while True:
        for t in (0, 1) if trace else (0,):
            reps.append(run_worker(workload, seed, t, f"rep{rounds}-trace{t}"))
        rounds += 1
        elapsed = time.perf_counter() - start
        if (trace or rounds >= MIN_REPS) and elapsed * (rounds + 1) / rounds > seconds:
            break
    out = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "problems": [p for r in reps for p in r["problems"]],
        "metrics": {},
    }
    if trace:
        # back-to-back (untraced, traced) pairs, so slow drifts of machine
        # speed cancel in the overhead
        pairs = [(p, t) for p, t in zip(reps[1::2], reps[2::2])
                 if "wall_s" in p and "wall_s" in t]
        if pairs:
            for name in LAYER_UNITS:
                if name != "trace.overhead_s":
                    out["metrics"][name] = summary([t["layers"][name] for _, t in pairs])
            out["metrics"]["trace.overhead_s"] = summary(
                [t["wall_s"] - p["wall_s"] for p, t in pairs])
            out["missing_boundaries"] = pairs[0][1]["missing_boundaries"]
    else:
        timed = [r for r in reps[1:] if "wall_s" in r]
        if timed:
            for name, statistic in END_TO_END.items():
                out["metrics"][name] = summary([r[name] for r in timed], statistic)
    return out


def print_result(res: dict, units: dict) -> None:
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  "
          f"seconds={res['seconds']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<28} {m['value']:>14.6g} {units[name]:<6} "
              f"({m['statistic']} of {m['n']}: median {m['median']:.6g}, "
              f"min {m['min']:.6g}, max {m['max']:.6g})")
    rate = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
    print(f"  {'run_error_rate':<28} {rate:>14.6g} {'ratio':<6} "
          f"({res['failed']} of {res['attempted']} member runs failed)")
    for problem in res["problems"][:10]:
        print(f"  problem: {problem}")
    if res.get("missing_boundaries"):
        print(f"  boundaries not found, layers read 0: {res['missing_boundaries']}")


def main(argv=None) -> int:
    # exit through Python on SIGTERM, so subprocess.run kills and reaps the
    # running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload traced and untraced")
    parser.add_argument("--out", type=Path, default=WORK / "BENCH_report.json",
                        help="where --report writes its results")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chemoflux" / "__init__.py").is_file():
        print(f"error: chemoflux sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    units = {**{m["name"]: m["unit"] for m in spec["end_to_end"]}, **LAYER_UNITS}
    env = environment()
    print("env " + json.dumps(env))
    if args.report:
        results = []
        for workload in WORKLOADS.values():
            for trace in (0, 1):
                results.append(measure(workload, args.seed, seconds, trace))
                print_result(results[-1], units)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"env": env, "results": results}, indent=1))
        print(f"results written to {args.out}")
        return 0 if all(r["metrics"] and not r["failed"] for r in results) else 1
    if args.workload is None:
        parser.error("--workload is required unless --report is given")

    res = measure(WORKLOADS[args.workload], args.seed, seconds, args.trace)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print_result(res, units)
    WORK.mkdir(exist_ok=True)
    (WORK / f"BENCH_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps({"env": env, **res}, indent=1))
    if not res["metrics"]:
        print("error: no repetition finished; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
