"""Experiment orchestration: config files, the five studies and their tables.

Configs are flat ``key = value`` text with dotted section names
(``grid.N = 256``).  `_SCHEMA` declares every key once, and both
`parse_config` and `format_config` walk it.  An unknown key, a key given
twice, a value out of range (named by its key), values that contradict
each other (named by their section) or, checked last, a key that the run
does not read, by its study, recipe kind or dt mode (`_READ_WHEN`), is a
`ConfigError`; the echo of `format_config` holds the keys that the run
reads.

Every study runs one skeleton: its own input checks; `_data`, the one build
path, for every member, so data that cannot be built is a `ConfigError`
before any output (the theta scan calls it inside each member, where that
error is the row label ``invalid_data``, and the refinement builds one
datum, on its finest grid, which `resample` restricts to each member's
grid); in the two studies that run original mode, the single run and the
cross-validation, a fixed Crank-Nicolson dt above the datum's
`evolve.wave_limit` is a `ConfigError` as well; `_output` in the caller's
``out_dir`` (one that cannot be written is a `ConfigError`); `_map` over
the distinct members, each handing its datum to `run` in the one-shot
holder that `march` empties; then `_write_csv`, whose
``(columns, rows)`` the study returns for the CLI.  The refinement and the
delta sweep compare their members' final fields through one `_ladder`.  A
member that halts raises `RunHalted` out of the study, except in the single
run and the theta scan, which report the outcome.  Only the single run reads
``mode``, builds diagnostics rows and takes snapshots.  The theta scan
measures theta0 and M on the datum that each member runs
(`diagnostics.smallness`), and its ``a1_ok`` compares the member's final A1
with 1.5 * theta0.  A study's outputs are byte-deterministic for a fixed
config and do not depend on ``threads``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .cole_hopf import C_FLOOR, ChemistryParams, drift
from .diagnostics import (CSV_COLUMNS, DECAY_WINDOW, SCHEMA_VERSION, DecayFit,
                          fit_decay, smallness, sup_deviation)
from .evolve import (MODES, RunHalted, RunOutcome, StepperConfig, march, run,
                     wave_limit)
from .fields import Grid, ParameterError, lp_norm, resample
from .initial_data import InitialDataRecipe, build_initial_data, check_width
from .snapshots import write_snapshot

STUDIES = ("single_run", "delta_sweep", "refinement", "cross_validate", "theta_scan")

# the benchmark traces this name as a boundary that no study calls
forward_transform = drift


class ConfigError(ValueError):
    """Parse or validation failure, carrying the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


@dataclass
class ExperimentConfig:
    grid: Grid
    params: ChemistryParams
    recipe: InitialDataRecipe
    stepper: StepperConfig
    study: str = "single_run"
    mode: str = "transformed"
    snapshot_times: tuple = ()
    threads: int = 1
    deltas: tuple = ()
    n_list: tuple = ()
    dt_list: tuple = ()
    amplitudes: tuple = ()


def _one_of(*choices):
    def parse(text):
        if text not in choices:
            raise ValueError(f"must be one of {choices}")
        return text
    return parse


def _finite(text):
    """A finite real number: NaN passes every ``x <= 0`` range check, and an
    infinite horizon never ends."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _numbers(cast=_finite, arity=None):
    """Parser of comma-separated numbers, exactly ``arity`` of them if given."""
    def parse(text):
        items = tuple(cast(x) for x in text.split(",") if x.strip())
        if arity is not None and len(items) != arity:
            raise ValueError(f"expected {arity} numbers, got {len(items)}")
        return items
    return parse


def _threads(text):
    n = int(text)
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


def _resolutions(text):
    """Comma-separated distinct grid resolutions, each one that `Grid` accepts."""
    ns = _numbers(int)(text)
    for n in ns:
        Grid(1.0, n)   # its ParameterError is a ValueError, reported on the key
    if len(set(ns)) < len(ns):   # a repeated member adds no information
        raise ValueError("resolutions must be distinct")
    return ns


def _entries(arity):
    """Parser of ';'-separated entries of ``arity`` numbers each."""
    entry = _numbers(arity=arity)
    return lambda text: tuple(entry(part) for part in text.split(";") if part.strip())


def _width(text, grid, zero=True):
    """A mollifier width in physical units, or ``Xh`` for X cells of ``grid``:
    one that `check_width` accepts, or 0 (no mollifier) if ``zero``."""
    text = text.strip()
    width = _finite(text[:-1]) * grid.spacing if text.endswith("h") else _finite(text)
    return width if zero and width == 0 else check_width(grid, width)


def _widths(text, grid):
    """Comma-separated widths, none of them 0."""
    return tuple(_width(x, grid, zero=False) for x in text.split(",") if x.strip())


def _joined(items):
    return ",".join(map(repr, items))


def _joined_entries(entries):
    return "; ".join(map(_joined, entries))


_SECTIONS = {"grid": Grid, "params": ChemistryParams,
             "recipe": InitialDataRecipe, "stepper": StepperConfig}

_SCHEMA = (
    ("study", None, "study", _one_of(*STUDIES), str),
    ("mode", None, "mode", _one_of(*MODES), str),
    ("threads", None, "threads", _threads, str),
    ("grid.L", "grid", "side_length", _finite, repr),
    ("grid.N", "grid", "resolution", int, str),
    ("params.chi", "params", "chi", _finite, repr),
    ("params.mu", "params", "mu", _finite, repr),
    ("recipe.kind", "recipe", "kind", str, str),
    ("recipe.amplitude", "recipe", "amplitude", _finite, repr),
    ("recipe.p0", "recipe", "p0", _finite, repr),
    ("recipe.delta", "recipe", "delta", _width, repr),
    ("recipe.seed", "recipe", "seed", int, str),
    ("recipe.random_disks", "recipe", "random_disks", int, str),
    ("recipe.bump_center", "recipe", "bump_center", _numbers(arity=2), _joined),
    ("recipe.bump_sharpness", "recipe", "bump_sharpness", _finite, repr),
    ("stepper.scheme", "stepper", "scheme", str, str),
    ("stepper.dt", "stepper", "dt", _finite, repr),
    ("stepper.dt_mode", "stepper", "dt_mode", str, str),
    ("stepper.cfl_number", "stepper", "cfl_number", _finite, repr),
    ("stepper.t_end", "stepper", "t_end", _finite, repr),
    ("stepper.record_every", "stepper", "record_every", int, str),
    ("recipe.disks", "recipe", "disks", _entries(4), _joined_entries),
    ("recipe.stripes", "recipe", "stripes", _entries(3), _joined_entries),
    ("recipe.modes", "recipe", "potential_modes", _entries(4), _joined_entries),
    ("snapshot_times", None, "snapshot_times", _numbers(), _joined),
    ("sweep.deltas", None, "deltas", _widths, _joined),
    ("xval.n_list", None, "n_list", _resolutions, _joined),
    ("refine.n_list", None, "n_list", _resolutions, _joined),
    ("refine.dt_list", None, "dt_list", _numbers(), _joined),
    ("scan.amplitudes", None, "amplitudes", _numbers(), _joined),
)

# When a key is read, where not every run reads it: a run reads the key when
# each condition that names it holds.  (setting, readers) holds when the
# setting's value is one of the readers, (setting, True) when the value is
# nonzero and (setting, False) when it is empty.  The theta scan sets each
# member's amplitude and the sweep each member's delta; the sweep and the
# refinement keep only final fields, and two studies report the norm M in p0.
_READ_WHEN = {
    ("study", ("single_run",)): ("mode", "snapshot_times"),
    ("study", ("delta_sweep",)): ("sweep.deltas",),
    ("study", ("refinement",)): ("refine.n_list", "refine.dt_list"),
    ("study", ("cross_validate",)): ("xval.n_list",),
    ("study", ("theta_scan",)): ("scan.amplitudes",),
    ("study", ("single_run", "theta_scan")): ("recipe.p0",),
    ("study", ("single_run", "cross_validate", "theta_scan")): ("stepper.record_every",),
    ("study", ("single_run", "delta_sweep", "refinement", "cross_validate")): (
        "recipe.amplitude",),
    ("study", ("single_run", "refinement", "cross_validate", "theta_scan")): (
        "recipe.delta",),
    ("recipe.kind", ("piecewise_constant_disks",)): (
        "recipe.disks", "recipe.random_disks", "recipe.seed"),
    ("recipe.kind", ("piecewise_constant_stripes",)): ("recipe.stripes",),
    ("recipe.kind", ("smooth_bump",)): ("recipe.bump_center", "recipe.bump_sharpness"),
    ("recipe.disks", False): ("recipe.random_disks", "recipe.seed"),
    ("recipe.random_disks", True): ("recipe.seed",),
    ("stepper.dt_mode", ("cfl",)): ("stepper.cfl_number",),
}


def _unread(cfg, key, given=()):
    """Why the run of ``cfg`` does not read ``key``, or None: the first
    condition of `_READ_WHEN` on ``key`` that ``cfg`` fails, in words that
    say so where the config, whose keys are ``given``, does not give its
    setting."""
    for setting, readers in (cond for cond, keys in _READ_WHEN.items() if key in keys):
        section, attr = next(row[1:3] for row in _SCHEMA if row[0] == setting)
        value = getattr(getattr(cfg, section) if section else cfg, attr)
        note = "" if setting in given else f" (the config gives no {setting} key)"
        if readers in (True, False) and bool(value) != readers:
            return f"{'with a nonzero' if readers else 'without'} {setting}{note}"
        if readers not in (True, False) and value not in readers:
            by = "by" if setting == "study" else f"at {setting} ="
            return f"{by} {' or '.join(readers)}, not {value}{note}"
    return None


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat dotted key-value text into a validated ExperimentConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(key, f"given twice, as {raw[key]!r} and {value!r}")
        raw[key] = value
    for key in raw:
        if key not in {row[0] for row in _SCHEMA}:
            raise ConfigError(key, "unknown key")

    values = {section: {} for section in (None, *_SECTIONS)}

    def parse_rows(rows, grid=None):
        for key, section, attr, parse, _ in (row for row in rows if row[0] in raw):
            try:
                args = (raw[key], grid) if parse in (_width, _widths) else (raw[key],)
                values[section][attr] = parse(*args)
            except ValueError as exc:
                raise ConfigError(key, f"cannot parse {raw[key]!r}: {exc}") from None

    def build(section):
        try:
            return _SECTIONS[section](**values[section])
        except ParameterError as exc:   # one argument out of range: name its key
            key = next(row[0] for row in _SCHEMA
                       if row[1] == section and row[2] == exc.name)
            raise ConfigError(key, str(exc)) from None
        except ValueError as exc:       # arguments inconsistent with each other
            raise ConfigError(section, str(exc)) from None

    parse_rows(row for row in _SCHEMA if row[1] == "grid")
    grid = build("grid")
    parse_rows((row for row in _SCHEMA if row[1] != "grid"), grid)
    cfg = ExperimentConfig(grid=grid, params=build("params"), recipe=build("recipe"),
                           stepper=build("stepper"), **values[None])
    for key in raw:   # after every value is checked, so a bad one is named as such
        if why := _unread(cfg, key, raw):
            raise ConfigError(key, f"is read only {why}")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("path", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("path", f"cannot read {path}: not UTF-8 text "
                          f"({exc.reason} at byte {exc.start})") from None
    return parse_config(text)


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical, re-parsable echo of a parsed config: the keys its run reads,
    by its study, recipe kind and dt mode (`_READ_WHEN`), less those whose
    value is an empty list."""
    lines = []
    for key, section, attr, _, fmt in _SCHEMA:
        value = getattr(getattr(cfg, section) if section else cfg, attr)
        if value != () and _unread(cfg, key) is None:
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path, columns, rows) -> tuple:
    """Write the schema line, the header of ``columns`` and a line per row,
    numbers to 17 significant digits so that `read_series` reads them back
    exactly; return ``(columns, rows)``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n{','.join(columns)}\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else format(x, ".17g")
                              for x in row) + "\n")
    return columns, rows


def read_series(path, column) -> list:
    """(t, value) pairs of one column of a table that `_write_csv` wrote."""
    with open(path) as fh:
        rows = [(lineno, ln.strip().split(",")) for lineno, ln in enumerate(fh, 1)
                if ln.strip() and not ln.startswith("#")]
    header = rows[0][1] if rows else []
    for name in ("t", column):
        if name not in header:
            raise ValueError(f"column {name!r} not found in {path}")
    i, j = header.index("t"), header.index(column)
    series = []
    for lineno, p in rows[1:]:
        if len(p) != len(header):
            raise ValueError(f"{path} line {lineno}: {len(p)} fields, "
                             f"the header has {len(header)}")
        series.append((float(p[i]), float(p[j])))
    return series


def write_diagnostics_csv(path, records) -> None:
    _write_csv(path, CSV_COLUMNS, records)


# ---------------------------------------------------------------------------
# the study skeleton


def _output(cfg: ExperimentConfig, out_dir) -> Path:
    """The study's output directory, created, with the config echo in it.
    A directory that cannot be made or written is a `ConfigError` on ``out``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config_echo.cfg").write_text(format_config(cfg))
    except OSError as exc:
        raise ConfigError("out", f"cannot write {out_dir}: {exc.strerror}") from None
    return out


def _map(cfg: ExperimentConfig, fn, items) -> list:
    """``[fn(x) for x in items]``, on ``cfg.threads`` worker threads above 1.
    One thread runs the members in the calling thread, not in a pool of one,
    whose worker would allocate from a malloc arena of its own, and leaves the
    pool's module, slow to import, unloaded."""
    if cfg.threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(fn, items))


def _data(recipe, grid) -> list:
    """A member's datum ``[u0, phi0]``, the one-shot holder that `march`
    empties.  Data that cannot be built is a `ConfigError` on ``recipe``."""
    try:
        return list(build_initial_data(recipe, grid))
    except ValueError as exc:   # u0 < 0, or a width out of range on a member's grid
        raise ConfigError("recipe", str(exc)) from None


def _refuse_above_wave_limit(stepper, grid, u0, chi) -> None:
    """A `ConfigError` on ``stepper.dt`` for a fixed Crank-Nicolson dt above
    the `wave_limit` of the datum of u0 on ``grid``, past which an
    original-mode run amplifies its band corner."""
    fixed_cn = stepper.scheme == "imex_cn" and stepper.dt_mode == "fixed"
    if fixed_cn and stepper.dt > (limit := wave_limit(grid, u0, chi)):
        raise ConfigError("stepper.dt", f"{stepper.dt!r} is above the original "
                          f"mode's Crank-Nicolson wave limit {limit!r}")


def _ladder(side_length, steps, fields) -> tuple:
    """Neighbour differences of a convergence ladder: ``fields[k]`` is member
    k's final field, on any grid of the torus of side ``side_length``, and
    ``steps[k]`` its step size (dt, h or delta), coarse to fine.  Each field is
    resampled onto the finest grid, where e_k = ||f_k - f_{k+1}||_2
    (`lp_norm`).  Returns the lists (e_k) and (order_k) over every member but
    the last, with the observed order order_k = log(e_k/e_{k+1}) /
    log(h_k/h_{k+1}), nan for the last and wherever either error is 0."""
    grid = Grid(side_length, max(f.shape[-1] for f in fields))
    fields = [resample(f, grid.resolution) for f in fields]
    errors = [lp_norm(grid, f1 - f2, 2) for f1, f2 in zip(fields, fields[1:])]
    orders = [math.log(e1 / e2) / math.log(h1 / h2) if e1 > 0 and e2 > 0 else math.nan
              for e1, e2, h1, h2 in zip(errors, errors[1:], steps, steps[1:])]
    return errors, orders + [math.nan]


# ---------------------------------------------------------------------------
# studies


def run_single(cfg: ExperimentConfig, out_dir) -> tuple:
    """One run to t_end with its artifacts; returns (outcome, message,
    diagnostics rows, decay summary table, out dir).  A halted run writes the
    rows it has and keeps no `RunHalted`, whose traceback holds the march.
    In original mode a fixed Crank-Nicolson dt above the datum's
    `wave_limit` is a `ConfigError` on ``stepper.dt``."""
    for t in cfg.snapshot_times:
        if not 0.0 <= t <= cfg.stepper.t_end:
            raise ConfigError("snapshot_times", f"{t!r} is outside [0, t_end = "
                              f"{cfg.stepper.t_end!r}]")
    names = [f"{t:.6f}" for t in cfg.snapshot_times]   # snapshot_{name}.cfx
    if len(set(names)) < len(names):   # a later file would overwrite an earlier
        raise ConfigError("snapshot_times", f"{_joined(cfg.snapshot_times)}: two "
                          "times share a file name, which keeps 6 decimals")
    data = _data(cfg.recipe, cfg.grid)
    if cfg.mode == "original":
        _refuse_above_wave_limit(cfg.stepper, cfg.grid, data[0], cfg.params.chi)
    out = _output(cfg, out_dir)
    records = []
    outcome, message = RunOutcome.COMPLETED, ""
    try:
        run(data, cfg.stepper, cfg.params, mode=cfg.mode, grid=cfg.grid,
            snapshot_times=cfg.snapshot_times,
            snapshot_sink=lambda t, payload: write_snapshot(
                out / f"snapshot_{t:.6f}.cfx", list(payload.values())),
            recorders=(lambda node: records.append(node.row(cfg.recipe.p0)),))
    except RunHalted as halt:
        outcome, message = halt.outcome, halt.message
    write_diagnostics_csv(out / "diagnostics.csv", records)

    fits = []
    t_final = records[-1].t if records else 0.0   # t=0 halt
    lo, hi = DECAY_WINDOW
    window = (lo, min(hi, t_final))
    if window[1] > window[0]:
        for column, ref in (("c_linf", cfg.params.mu), ("u_linf", None),
                            ("v_l4", None)):
            series = [(r.t, getattr(r, column)) for r in records]
            try:
                fit = fit_decay(series, window)
            except ValueError:
                continue  # too few samples, or one not finite and positive: no row
            fits.append((column, *fit, "" if ref is None else ref))
    decay = _write_csv(out / "decay_summary.csv",
                       ("quantity", *DecayFit._fields, "reference_rate"), fits)
    return outcome, message, records, decay, out


def run_delta_sweep(cfg: ExperimentConfig, out_dir) -> tuple:
    """Mollification-width sweep: solve for each delta on the config grid and
    compare neighbours at t_end.  Returns the table of ``delta_sweep.csv`` and
    whether both differences decrease down the sweep (the Cauchy property).
    A row per width but the narrowest: through `_ladder`, ``du_l2`` and
    ``dv_l2`` are the L2 distances of its final u and v to those of the next
    narrower width, and ``du_order`` and ``dv_order`` the observed orders in
    delta, log(e_k/e_{k+1}) / log(delta_k/delta_{k+1}) between the row and
    the next, nan for the last row and wherever either error is 0."""
    deltas = cfg.deltas
    if len(deltas) < 3:
        raise ConfigError("sweep.deltas", "need at least 3 widths")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ConfigError("sweep.deltas", "widths must be strictly decreasing")
    data = [_data(replace(cfg.recipe, delta=d), cfg.grid) for d in deltas]
    out = _output(cfg, out_dir)

    def final_uv(datum):   # only the samples: the rest of the node is dropped
        final = run(datum, cfg.stepper, cfg.params, grid=cfg.grid)
        return final.u, final.v

    finals = _map(cfg, final_uv, data)
    (du, du_order), (dv, dv_order) = (_ladder(cfg.grid.side_length, deltas, fields)
                                      for fields in zip(*finals))
    decreasing = all(e1 > e2 for e in (du, dv) for e1, e2 in zip(e, e[1:]))
    table = _write_csv(out / "delta_sweep.csv", ("delta_coarse", "delta_fine", "du_l2",
                                                 "dv_l2", "du_order", "dv_order"),
                       list(zip(deltas, deltas[1:], du, dv, du_order, dv_order)))
    return table, decreasing


def run_refinement(cfg: ExperimentConfig, out_dir) -> tuple:
    """Temporal study over dt_list on the config grid, and spatial study over
    n_list at the smallest dt, from one datum.

    The datum is built once, on the finest grid (the largest of grid.N and
    n_list), and `resample` restricts it to each member's grid.  Returns the
    table of ``refinement.csv``, rows (kind, param, error, order), a row per
    member but the finest of each study, ``param`` its dt or N.  Through
    `_ladder`, ``error`` is the L2 distance between its final u and the next
    finer member's, both resampled onto the study's finest grid, and
    ``order`` is log(e_k/e_{k+1}) / log(h_k/h_{k+1}) in dt or the grid
    spacing h, nan for the last row and wherever either error is 0.  Each
    distinct (N, dt) member runs once.
    """
    if cfg.stepper.dt_mode != "fixed":
        raise ConfigError("stepper.dt_mode", f"refinement steps at fixed dt, "
                          f"not {cfg.stepper.dt_mode!r}")
    for key, items in (("refine.dt_list", cfg.dt_list), ("refine.n_list", cfg.n_list)):
        if len(items) < 3:
            raise ConfigError(key, "need at least 3 entries")
    if len(set(cfg.dt_list)) < len(cfg.dt_list):   # a repeat has no order
        raise ConfigError("refine.dt_list", "steps must be distinct")
    ns = sorted(cfg.n_list)
    dts = sorted(cfg.dt_list, reverse=True)
    try:   # every member's stepper, before any output
        steppers = {dt: replace(cfg.stepper, dt=dt) for dt in dts}
    except ValueError as exc:   # a dt above t_end
        raise ConfigError("refine.dt_list", f"{_joined(cfg.dt_list)}: {exc}") from None
    L = cfg.grid.side_length
    u0, phi0 = _data(cfg.recipe, Grid(L, max(cfg.grid.resolution, *ns)))
    out = _output(cfg, out_dir)
    data = {n: (resample(u0, n), resample(phi0, n)) for n in {cfg.grid.resolution, *ns}}

    def final_u(member):
        n, dt = member   # a fresh holder: each grid's datum serves every dt
        return run(list(data[n]), steppers[dt], cfg.params, grid=Grid(L, n)).u

    in_time = [(cfg.grid.resolution, dt) for dt in dts]
    in_space = [(n, dts[-1]) for n in ns]
    members = list(dict.fromkeys(in_time + in_space))
    finals = dict(zip(members, _map(cfg, final_u, members)))
    rows = []
    for kind, params, ladder, steps in (("temporal", dts, in_time, dts),
                                        ("spatial", ns, in_space, [L / n for n in ns])):
        errors, orders = _ladder(L, steps, [finals[m] for m in ladder])
        rows += zip([kind] * len(errors), params, errors, orders)
    return _write_csv(out / "refinement.csv", ("kind", "param", "error", "order"), rows)


def run_cross_validate(cfg: ExperimentConfig, out_dir) -> tuple:
    """Run both modes from one datum; report their max-in-time L2 discrepancies.

    The modes share every spatial operator and one step, the s and v
    updates included; they differ only in where the self-transport term
    chi dt/4 lap P(u^2) goes: at the node in original mode, at the predictor
    (which backward Euler does not take) in transformed mode.  That is, in
    the time level of the drift in one transport term.  So the discrepancy
    measures that time error alone, which falls at the scheme's order in dt
    (``test_xval_measures_the_time_level_of_the_drift``), and it cannot see
    a defect in the shared operators.  The modes step in
    lockstep, one node each; a record without a partner at the same time is
    a RuntimeError, and a halt of either mode raises `RunHalted`.  Members
    step at a fixed dt scaled with the grid spacing; a datum whose chemical
    is at or below `C_FLOOR` is a `ConfigError`, and so is a Crank-Nicolson
    member's dt above its datum's `wave_limit`, on ``stepper.dt``.
    """
    if cfg.stepper.dt_mode != "fixed":
        raise ConfigError("stepper.dt_mode", f"cross-validation steps at fixed dt, "
                          f"not {cfg.stepper.dt_mode!r}")
    ns = cfg.n_list if cfg.n_list else (cfg.grid.resolution,)
    try:   # every member's stepper, before any output
        steppers = [replace(cfg.stepper, dt=cfg.stepper.dt * (ns[0] / n)) for n in ns]
    except ValueError as exc:   # a coarse member's dt exceeds t_end
        raise ConfigError("xval.n_list", f"{_joined(ns)}: {exc}") from None
    members = []   # (stepper, grid, [u0, phi0])
    for n, stepper in zip(ns, steppers):
        grid = Grid(cfg.grid.side_length, n)
        data = _data(cfg.recipe, grid)
        _refuse_above_wave_limit(stepper, grid, data[0], cfg.params.chi)
        if -cfg.params.mu * data[1].max() <= math.log(C_FLOOR):
            raise ConfigError("recipe", "matched chemical is at or below the "
                              f"extinction floor {C_FLOOR}")
        members.append((stepper, grid, data))
    out = _output(cfg, out_dir)

    def discrepancies(member):
        stepper, grid, data = member
        # one datum, a holder per mode: each march empties its own
        partner = march(list(data), stepper, cfg.params, mode="original", grid=grid)
        max_du = 0.0
        max_dv = 0.0

        def compare(node):
            nonlocal max_du, max_dv
            other = next(partner, None)   # its halt raises here
            if other is None:
                raise RuntimeError(f"cross-validation: transformed record at "
                                   f"t={node.t} has no original record")
            if other.t != node.t:
                raise RuntimeError(f"cross-validation: original record at "
                                   f"t={other.t} and transformed record at "
                                   f"t={node.t} are not at the same time")
            max_du = max(max_du, lp_norm(grid, node.u - other.u, 2))
            max_dv = max(max_dv, lp_norm(grid, other.v - node.v, 2))

        # the transformed run goes through `run`, as every study's first run
        # does: the first entry into `run` marks where stepping starts
        # (perfbench's setup_s ends there)
        run(data, stepper, cfg.params, recorders=(compare,), grid=grid)
        other = next(partner, None)
        if other is not None:
            raise RuntimeError(f"cross-validation: original record at "
                               f"t={other.t} has no transformed record")
        return (grid.resolution, stepper.dt, max_du, max_dv)

    return _write_csv(out / "cross_validate.csv",
                      ("N", "dt", "max_u_discrepancy", "max_v_discrepancy"),
                      _map(cfg, discrepancies, members))


def run_theta_scan(cfg: ExperimentConfig, out_dir) -> tuple:
    """Amplitude ladder: measure theta0 and M and classify each run's outcome.

    Returns the table of ``theta_scan.csv``, a row per amplitude.  ``theta0``
    and ``M`` are `smallness` of the datum that the member runs, mollified
    if delta > 0.  ``decayed`` means the sup-norm perturbation at the end is
    at most half that at the first record node with t >= 1, and ``a1_ok``
    that the final A1 is at most ``a1_bound`` = 1.5 * theta0, the linear
    bound.  A halted member is labelled with its outcome, and one whose data
    `_data` cannot build ``invalid_data``.
    """
    if not cfg.amplitudes:
        raise ConfigError("scan.amplitudes", "amplitude ladder is required")
    if any(a1 >= a2 for a1, a2 in zip(cfg.amplitudes, cfg.amplitudes[1:])):
        raise ConfigError("scan.amplitudes", "ladder must be strictly increasing")
    out = _output(cfg, out_dir)

    def scan_one(amp):
        try:
            data = _data(replace(cfg.recipe, amplitude=amp), cfg.grid)
        except ConfigError:
            return (amp, math.nan, math.nan, "invalid_data", False, math.nan,
                    math.nan, False, False)
        theta0, M = smallness(cfg.grid, *data, cfg.recipe.p0)
        a1 = math.nan   # a run can halt at its t=0 node, before any record
        settled = []    # u_linf at each record node from t = 1 on

        def keep(node):
            nonlocal a1
            a1 = node.a1
            if node.t >= 1.0:
                settled.append(sup_deviation(node.u))

        try:
            run(data, cfg.stepper, cfg.params, recorders=(keep,), grid=cfg.grid)
        except RunHalted as halt:
            decayed, label = False, halt.outcome.value   # blowup, chemical_extinction
        else:
            decayed = bool(settled) and settled[-1] <= 0.5 * settled[0]
            label = "completed_decay" if decayed else "completed_no_decay"
        bound = 1.5 * theta0
        a1_ok = a1 <= bound if theta0 > 0 else True
        lemma34_ok = bool(settled) and all(x <= 0.25 for x in settled)
        return amp, theta0, M, label, decayed, a1, bound, a1_ok, lemma34_ok

    return _write_csv(out / "theta_scan.csv",
                      ("amplitude", "theta0", "M", "outcome", "decayed", "a1",
                       "a1_bound", "a1_ok", "lemma34_ok"),
                      _map(cfg, scan_one, cfg.amplitudes))
