"""Check that two checkouts write byte-identical outputs on every benchmark
workload.

Usage: ``python tools/same_outputs.py PARENT [CHANGE]``; CHANGE defaults to
this checkout.  Each argument is the root of a checkout, with the package in
``src/chemoflux``.

Each checkout runs its own cases: each workload of its
``perfbench/workloads.py`` at seeds 0 and 5, and each of its
``tests/golden/*.cfg`` as a ``run``, so that the two sides may spell a
config differently.  A case is matched across the checkouts by the
workload's name and seed, or by the golden's file name; a case that only
one checkout has is reported as such.  For each case it writes each
side's config to a temporary directory and runs
``python -m chemoflux.cli <subcommand> --config ... --out ...`` from each
checkout, with ``PYTHONPATH=<checkout>/src``, one thread and no bytecode
written, so that neither checkout is touched.  Then it compares the two
output trees file by file, as bytes, and prints each file that differs or
exists on one side only; for a CSV it also prints how many lines differ and
the first that differs below the schema line ``# chemoflux-diagnostics-vN``,
so that a schema bump cannot hide a changed row, and the largest absolute
difference of each numeric column, so that a tolerance on a column can be
read off the output.  For any other file that differs and is UTF-8 text,
such as ``config_echo.cfg``, it prints the lines that only one side has,
``-`` for the parent and ``+`` for the change.  It exits 1 on any
difference, the schema line's included, on a case of one side only or on a
study that exits non-zero, 2 on a checkout without ``src/chemoflux``, and 0
otherwise.
"""

from __future__ import annotations

import importlib.util
import math
import os
from collections import Counter
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True   # importing perfbench/ leaves no __pycache__
sys.path.insert(0, str(ROOT / "perfbench"))

from run import THREAD_VARS  # noqa: E402

SEEDS = (0, 5)
SCHEMA_PREFIX = "# chemoflux-diagnostics-v"


def run_study(checkout: Path, subcommand: str, config: Path, out: Path) -> str:
    """Run one study from ``checkout``; returns "" or why it failed."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS},
           "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "chemoflux.cli", subcommand, "--config",
         str(config), "--out", str(out)],
        cwd=out.parent, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return ""
    return f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"


def csv_difference(a: bytes, b: bytes) -> str:
    """How many lines of two texts differ, and the first that differs below
    a schema line on both sides, as a message."""
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    differ = [(i, la, lb) for i, (la, lb) in enumerate(zip(lines_a, lines_b), 1)
              if la != lb]
    count = len(differ) + abs(len(lines_a) - len(lines_b))
    schema = lines_a[:1] + lines_b[:1]
    if len(schema) == 2 and all(ln.startswith(SCHEMA_PREFIX) for ln in schema):
        differ = [d for d in differ if d[0] > 1]
    if differ:
        i, la, lb = differ[0]
        first = f"first at line {i}:\n    - {la}\n    + {lb}"
    elif len(lines_a) != len(lines_b):
        first = f"{len(lines_a)} lines against {len(lines_b)}"
    else:
        first = "only the schema line differs"
    return f"{count} of {max(len(lines_a), len(lines_b))} lines differ, {first}"


def _gap(x: float, y: float) -> float:
    """|x - y|, 0 for two NaNs and infinite for a NaN against a number."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    gap = abs(x - y)
    return math.inf if math.isnan(gap) else gap


def column_differences(a: bytes, b: bytes) -> str:
    """The largest absolute difference of each column of two CSV texts whose
    values parse as numbers on both sides, over the rows both have, as a
    message; a column is matched by its name in the header below the comment
    lines."""
    tables = []
    for text in (a, b):
        lines = [ln.split(",") for ln in text.decode().splitlines()
                 if ln and not ln.startswith("#")]
        tables.append((lines[0], lines[1:]) if lines else ([], []))
    (head_a, rows_a), (head_b, rows_b) = tables
    parts = []
    for name in head_a:
        if name not in head_b:
            continue
        i, j = head_a.index(name), head_b.index(name)
        try:
            pairs = [(float(ra[i]), float(rb[j])) for ra, rb in zip(rows_a, rows_b)]
        except (IndexError, ValueError):   # a short row or a text column
            continue
        gap = max((_gap(x, y) for x, y in pairs), default=0.0)
        parts.append(f"{name} {gap:.3g}")
    return "largest absolute difference per numeric column: " + (
        ", ".join(parts) if parts else "none")


def line_difference(a: bytes, b: bytes) -> str:
    """The lines that only one of two texts has, as a message: "" for data
    that is not UTF-8 text."""
    try:
        lines_a, lines_b = (Counter(x.decode().splitlines()) for x in (a, b))
    except UnicodeDecodeError:
        return ""
    only = [f"\n    - {ln}" for ln in (lines_a - lines_b).elements()]
    only += [f"\n    + {ln}" for ln in (lines_b - lines_a).elements()]
    if not only:
        return ", the same lines in another order"
    return ", lines on one side only:" + "".join(only)


def cases(checkout: Path) -> dict:
    """{label: (subcommand, config text)} of every case of a checkout: each
    workload of its ``perfbench/workloads.py`` at each seed, then each of its
    golden configs; the goldens run backward Euler, an original-mode single
    run and an off-record snapshot, which no workload does."""
    found = {}
    path = checkout / "perfbench" / "workloads.py"
    if path.exists():   # loaded by path: each checkout's own module
        name = f"workloads@{path}"
        spec = importlib.util.spec_from_file_location(name, path)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for workload in module.WORKLOADS.values():
            for seed in SEEDS:
                found[f"{workload.name} seed {seed}"] = (workload.subcommand,
                                                         workload.config(seed))
    for config in sorted((checkout / "tests" / "golden").glob("*.cfg")):
        found[f"golden {config.stem}"] = ("run", config.read_text())
    return found


def compare_trees(a: Path, b: Path) -> list:
    """Messages for every file that differs between the trees a and b."""
    names = sorted({p.relative_to(root) for root in (a, b)
                    for p in root.rglob("*") if p.is_file()})
    problems = []
    for name in names:
        fa, fb = a / name, b / name
        if not (fa.exists() and fb.exists()):
            problems.append(f"{name}: only in {'parent' if fa.exists() else 'change'}")
            continue
        da, db = fa.read_bytes(), fb.read_bytes()
        if da != db:
            detail = (f", {csv_difference(da, db)}\n    {column_differences(da, db)}"
                      if name.suffix == ".csv" else line_difference(da, db))
            problems.append(f"{name}: differs{detail}")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not 1 <= len(argv) <= 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkouts = {"parent": Path(argv[0]).resolve(),
                 "change": Path(argv[1]).resolve() if len(argv) > 1 else ROOT}
    for side, checkout in checkouts.items():
        if not (checkout / "src" / "chemoflux").is_dir():
            print(f"error: {side} checkout {checkout} has no src/chemoflux",
                  file=sys.stderr)
            return 2
    side_cases = {side: cases(checkout) for side, checkout in checkouts.items()}
    labels = dict.fromkeys([*side_cases["parent"], *side_cases["change"]])
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label in labels:
            only = [side for side, found in side_cases.items() if label in found]
            if len(only) == 1:
                print(f"{label}: only in {only[0]}")
                bad += 1
                continue
            case = Path(tmp) / label.replace(" ", "_")
            case.mkdir()
            problems = []
            for side, checkout in checkouts.items():
                subcommand, text = side_cases[side][label]
                config = case / f"{side}.cfg"
                config.write_text(text)
                why = run_study(checkout, subcommand, config, case / side)
                if why:
                    problems.append(f"{side} study failed, {why}")
            if not problems:
                problems = compare_trees(case / "parent", case / "change")
            files = sum(1 for p in (case / "change").rglob("*") if p.is_file())
            print(f"{label}: {'differs' if problems else f'{files} files identical'}")
            for problem in problems:
                print(f"  {problem}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
