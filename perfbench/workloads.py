"""The benchmark's workloads: a config per seed and the checks on each run's outputs.

Every workload runs one chemoflux study through ``chemoflux.cli.main`` with
``threads = 1``.  The seed only moves the initial disks; sizes, horizons and
step control are fixed, so the work per run is the same for every seed.

Why each workload exists (layer -> end-to-end metric it should move):

* ``flagship_n256`` -- ``single_run`` in transformed mode at the flagship
  shape (N=256, CFL dt capped at 0.01, a record every 5 steps, two snapshots).
  Stepping dominates and is FFT-bound, so evolve.* and fft.* move ``wall_s``
  here; diagnostics.* move it by about a third; snapshots.* (about 1 ms)
  should not move it.  This is where a faster spectral core shows.
* ``theta_scan_n64`` -- an amplitude ladder of five members at N=64 with a
  record every step, so ``make_record`` dominates: diagnostics.* move
  ``wall_s`` here, while evolve.* and a per-FFT-size gain mostly do not.
  The largest amplitude stays below 0.5, the level at which the two
  overlapping negative disks of a layout would make u0 < 0, so every member
  runs to its horizon.
* ``xval_n128`` -- ``cross_validate`` at N=128, every step recorded, which
  runs the transformed stepper and the original-mode log-space Strang
  stepper and calls ``forward_transform`` per record on the kept
  ``field_history``.  cole_hopf.* and harness.self_s (the comparison loop)
  move ``wall_s`` here, harness.history_mb moves ``peak_rss_mb`` here only,
  and a transformed-only speed-up moves only half of the stepping.

On every workload initial_data.* and harness.parse_ms move ``setup_s``.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
SIDE = 16 * math.pi
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# flagship_n256
FLAGSHIP_N = 256
FLAGSHIP_T_END = 0.2
SNAPSHOT_TIMES = (0.1, 0.2)
DISK_RADIUS = math.sqrt(2.0 / math.pi)  # area 2, as in harness.flagship_config
RESIDUAL_COLUMNS = ("flux_div_residual", "flux_curl_residual")
RESIDUAL_BOUND = 1e-10
REFERENCE_RTOL = 1e-8

# theta_scan_n64
THETA_AMPLITUDES = (0.05, 0.1, 0.2, 0.3, 0.4)
THETA_T_END = 0.4

# xval_n128; over seeds 0-19 the discrepancies at this size are at most
# 1.02e-5 (u) and 6.9e-6 (v).
XVAL_T_END = 0.4
XVAL_U_BOUND = 5e-5
XVAL_V_BOUND = 5e-5

_COMMON = f"""grid.L = {SIDE!r}
recipe.kind = piecewise_constant_disks
recipe.delta = 2h
threads = 1
"""
# Random-disk layouts also carry two potential modes, so v0 and the drift
# rebuilt from ln c are not zero at t = 0.
_RANDOM_LAYOUT = """recipe.random_disks = 4
recipe.modes = 1,0,1.0,0.0; 0,2,0.5,1.0
"""


def flagship_config(seed: int) -> str:
    """The flagship pair of opposite disks, each moved by the seed."""
    rng = random.Random(seed)
    disks = []
    for cx, weight in ((0.4, 1.0), (0.6, -1.0)):
        disks.append(f"{cx + rng.uniform(-0.05, 0.05)!r},"
                     f"{0.5 + rng.uniform(-0.1, 0.1)!r},{DISK_RADIUS!r},{weight}")
    return _COMMON + f"""study = single_run
mode = transformed
grid.N = {FLAGSHIP_N}
recipe.amplitude = 0.05
recipe.disks = {'; '.join(disks)}
stepper.scheme = imex_cn
stepper.dt = 0.01
stepper.dt_mode = cfl
stepper.cfl_number = 0.5
stepper.t_end = {FLAGSHIP_T_END}
stepper.record_every = 5
snapshot_times = {','.join(map(str, SNAPSHOT_TIMES))}
"""


def theta_config(seed: int) -> str:
    return _COMMON + _RANDOM_LAYOUT + f"""study = theta_scan
grid.N = 64
recipe.seed = {seed}
stepper.dt = 0.01
stepper.dt_mode = cfl
stepper.t_end = {THETA_T_END}
stepper.record_every = 1
scan.amplitudes = {','.join(map(str, THETA_AMPLITUDES))}
"""


def xval_config(seed: int) -> str:
    return _COMMON + _RANDOM_LAYOUT + f"""study = cross_validate
grid.N = 128
recipe.seed = {seed}
recipe.amplitude = 0.05
stepper.dt = 0.01
stepper.t_end = {XVAL_T_END}
stepper.record_every = 1
xval.n_list = 128
"""


def read_csv(path: Path) -> list:
    """Rows of a chemoflux CSV as dicts of strings (comment lines skipped)."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def compare_to_reference(rows: list, ref_rows: list) -> list:
    """Differences from a reference diagnostics CSV, as messages.

    Physical columns agree to REFERENCE_RTOL relative to the reference value
    (entries below 1e-6 of their column's largest magnitude are compared
    against that floor instead); residual columns only need to stay under
    RESIDUAL_BOUND, which the per-row check already enforces.
    """
    if len(rows) != len(ref_rows):
        return [f"reference has {len(ref_rows)} rows, run has {len(rows)}"]
    problems = []
    for col in ref_rows[0]:
        if col in RESIDUAL_COLUMNS:
            continue
        ref = [float(r[col]) for r in ref_rows]
        floor = 1e-6 * max(abs(x) for x in ref)
        for i, (row, b) in enumerate(zip(rows, ref)):
            a = float(row.get(col, "nan"))
            if not abs(a - b) <= REFERENCE_RTOL * max(abs(b), floor):
                problems.append(f"row {i} {col}: {a!r} vs reference {b!r}")
    return problems


def check_snapshots(out: Path) -> list:
    """Each requested time has one CFX1 file with N=256 and u, v1, v2."""
    problems = []
    files = sorted(out.glob("snapshot_*.cfx"))
    times = [float(p.stem[len("snapshot_"):]) for p in files]
    if len(times) != len(SNAPSHOT_TIMES) or any(
            abs(t - want) > 5e-7 for t, want in zip(times, SNAPSHOT_TIMES)):
        problems.append(f"snapshot times {times} != requested {list(SNAPSHOT_TIMES)}")
    for path in files:
        data = path.read_bytes()
        magic, n, count, _ = struct.unpack("<4sIII", data[:16])
        if (magic, n, count) != (b"CFX1", FLAGSHIP_N, 3) or \
                len(data) != 16 + 8 * count * n * n:
            problems.append(f"{path.name}: bad header or size")
    return problems


def check_flagship(out: Path, seed: int) -> tuple:
    problems = []
    rows = read_csv(out / "diagnostics.csv")
    if abs(float(rows[-1]["t"]) - FLAGSHIP_T_END) > 1e-9:
        problems.append(f"last record at t={rows[-1]['t']}, horizon {FLAGSHIP_T_END}")
    for i, row in enumerate(rows):
        for col in RESIDUAL_COLUMNS:
            if not float(row[col]) <= RESIDUAL_BOUND:
                problems.append(f"row {i} {col} = {row[col]} > {RESIDUAL_BOUND}")
    problems += check_snapshots(out)
    if seed == DEFAULT_SEED:
        ref = REFERENCE_DIR / f"flagship_n256_seed{seed}.csv"
        if ref.exists():
            problems += compare_to_reference(rows, read_csv(ref))
        else:
            problems.append(f"reference {ref.name} is missing")
    return 1, (1 if problems else 0), problems


def check_theta(out: Path, seed: int) -> tuple:
    rows = read_csv(out / "theta_scan.csv")
    amps = [float(r["amplitude"]) for r in rows]
    if amps != list(THETA_AMPLITUDES):
        return len(THETA_AMPLITUDES), len(THETA_AMPLITUDES), [f"amplitudes {amps}"]
    problems = [f"amplitude {r['amplitude']}: outcome {r['outcome']}"
                for r in rows if not r["outcome"].startswith("completed_")]
    return len(rows), len(problems), problems


def check_xval(out: Path, seed: int) -> tuple:
    rows = read_csv(out / "cross_validate.csv")
    problems = []
    if [int(r["N"]) for r in rows] != [128]:
        problems.append(f"rows for N={[r['N'] for r in rows]}, expected [128]")
    for r in rows:
        du, dv = float(r["max_u_discrepancy"]), float(r["max_v_discrepancy"])
        if not (du <= XVAL_U_BOUND and dv <= XVAL_V_BOUND):
            problems.append(f"discrepancies u={du:g} v={dv:g} over "
                            f"{XVAL_U_BOUND:g}/{XVAL_V_BOUND:g}")
    return 2, (2 if problems else 0), problems   # both solvers fail together


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    members: int        # member runs of one study
    config: Callable[[int], str]
    check: Callable[[Path, int], tuple]   # -> (attempted, failed, messages)

    def verify(self, out: Path, seed: int, exit_code, error) -> tuple:
        """Checks on one study's outputs, counted in member runs."""
        if error is not None or exit_code != 0:
            return self.members, self.members, [error or f"exit code {exit_code}"]
        try:
            return self.check(out, seed)
        except (OSError, KeyError, ValueError, IndexError, struct.error) as exc:
            return self.members, self.members, [f"unreadable output: {exc!r}"]


WORKLOADS = {w.name: w for w in (
    Workload("flagship_n256", "run", 1, flagship_config, check_flagship),
    Workload("theta_scan_n64", "scan-theta", len(THETA_AMPLITUDES), theta_config,
             check_theta),
    Workload("xval_n128", "xval", 2, xval_config, check_xval),
)}
