"""Experiment orchestration: config files, canonical studies, persistence.

Configs are flat ``key = value`` text with dotted section names
(``grid.N = 256``).  `_SCHEMA` declares every key once, as a row of (key,
section, attribute, parser, formatter): the key sets ``attribute`` of the
``section`` part of an `ExperimentConfig` (of the config itself for
section None), ``parser`` reads the value text and ``formatter`` writes it
back.  `parse_config` sets only the keys a file gives, leaving the
dataclass defaults, rejects keys outside the table, a key given twice and
a key whose attribute an earlier key of the file sets (``xval.n_list`` and
``refine.n_list``), so that no later value silently wins, and parses the
``grid.*`` rows first, because mollifier widths and sweep deltas accept
the ``Xh`` suffix meaning X grid cells.  Every real number, in a list or
an ``Xh`` width too, is read by `_finite`.  A value that fails its own
range check is reported against its key, and values that contradict each
other (``stepper.dt`` above ``stepper.t_end``) against their section.
`format_config` echoes the rows in table order, leaving out empty lists
and the rows without a formatter (``xval.n_list``, a parse-only alias of
``refine.n_list``).

Every study has one skeleton: it checks its own inputs; `_data` builds the
datum ``[u0, phi0]`` of every member, two N x N sample arrays that serve
either mode, so data it cannot build is a `ConfigError` before any output;
`_output` makes the output directory and writes the config echo there;
`_map` maps the study's distinct members over ``threads`` worker threads
and `_solve` runs each through `run` on the member's `Grid`, which every
field measure takes beside its arrays, handing over the datum in a
one-shot holder that the member's `march` empties, so no study keeps a
member's unprojected datum while it runs (only the refinement, whose grids
each serve several step sizes, keeps its data and hands over a fresh
holder per member).  Only the single run passes the config's ``mode`` to
`run`; every other study runs the transformed mode, and cross-validation
runs both.  `_completed` raises `RunHalted`, carrying the `RunOutcome`,
for a member that halted where the study needs a completed run; the study
declares its columns beside its rows, writes its table through
`_write_csv` (a ``# chemoflux-diagnostics-v1`` line, a header line,
numbers to 17 significant digits) and returns it as ``(columns, rows)``,
for one CLI printer.  Only the single run builds diagnostics rows
(``node.row()``), one per record node for its CSV, and takes snapshots,
each written by its sink as soon as its march reaches the snapshot's time.
A node is also the state at its time: each `run` hook takes one, the theta
scan reads its free scalars and u, and the delta sweep and the refinement
keep only the samples of the final node.  The theta scan alone builds
inside each member, because data it cannot build is a row label there.
Cross-validation steps its two solvers in lockstep from one datum, the
original mode's `march` inside a hook of the transformed mode's `run`,
comparing the u and v of the two nodes, so it holds one node per mode.
Runs are byte-deterministic for a fixed config, and a study's outputs do
not depend on ``threads``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

# perfbench traces `forward_transform` as ``harness.forward_transform``, a
# boundary its tests require, so it stays imported though no study calls it
from .cole_hopf import C_FLOOR, ChemistryParams, forward_transform  # noqa: F401
from .diagnostics import CSV_COLUMNS, SCHEMA_VERSION, fit_decay, sup_deviation
from .evolve import RunOutcome, StepperConfig, Trajectory, march, run
from .fields import Grid, ParameterError, lp_norm
from .initial_data import InitialDataRecipe, build_initial_data
from .snapshots import write_snapshot

STUDIES = ("single_run", "delta_sweep", "refinement", "cross_validate", "theta_scan")


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
    out_dir: str = "out"
    snapshot_times: tuple = ()
    threads: int = 1
    deltas: tuple = ()        # delta_sweep
    n_list: tuple = ()        # refinement / cross_validate
    dt_list: tuple = ()       # refinement
    amplitudes: tuple = ()    # theta_scan


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


def _width(text, spacing):
    """A width in physical units, or ``Xh`` for X grid cells of ``spacing``."""
    text = text.strip()
    return _finite(text[:-1]) * spacing if text.endswith("h") else _finite(text)


def _widths(text, spacing):
    return tuple(_width(x, spacing) for x in text.split(",") if x.strip())


def _joined(items):
    return ",".join(map(repr, items))


def _joined_entries(entries):
    return "; ".join(map(_joined, entries))


_SECTIONS = {"grid": Grid, "params": ChemistryParams,
             "recipe": InitialDataRecipe, "stepper": StepperConfig}

_SCHEMA = (
    ("study", None, "study", _one_of(*STUDIES), str),
    ("out_dir", None, "out_dir", str, str),
    ("mode", None, "mode", _one_of("transformed", "original"), str),
    ("threads", None, "threads", int, str),
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
    # parse-only alias of refine.n_list; a file gives at most one of the two
    ("xval.n_list", None, "n_list", _resolutions, None),
    ("refine.n_list", None, "n_list", _resolutions, _joined),
    ("refine.dt_list", None, "dt_list", _numbers(), _joined),
    ("scan.amplitudes", None, "amplitudes", _numbers(), _joined),
)


def _parse(row, text, spacing=None):
    key, parse = row[0], row[3]
    try:
        return parse(text, spacing) if parse in (_width, _widths) else parse(text)
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {text!r}: {exc}") from None


def parse_value(key: str, text: str):
    """The value of one config key given outside a file (a CLI override)."""
    return _parse(next(row for row in _SCHEMA if row[0] == key), text)


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
    targets = {row[0]: row[1:3] for row in _SCHEMA}
    setters = {}   # (section, attribute) -> the first key of the file to set it
    for key in raw:
        if key not in targets:
            raise ConfigError(key, "unknown key")
        first = setters.setdefault(targets[key], key)
        if first != key:
            raise ConfigError(key, f"sets what {first} sets: give one of the two")

    values = {section: {} for section in (None, *_SECTIONS)}

    def parse_rows(rows, spacing=None):
        for row in rows:
            key, section, attr = row[:3]
            if key in raw:
                values[section][attr] = _parse(row, raw[key], spacing)

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
    parse_rows((row for row in _SCHEMA if row[1] != "grid"), grid.spacing)
    return ExperimentConfig(grid=grid, params=build("params"),
                            recipe=build("recipe"), stepper=build("stepper"),
                            **values[None])


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
    """Canonical echo of a parsed config (suitable for re-parsing)."""
    lines = []
    for key, section, attr, _, fmt in _SCHEMA:
        value = getattr(getattr(cfg, section) if section else cfg, attr)
        if fmt is not None and value != ():
            lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path, columns, rows) -> tuple:
    """A table: the schema line, the header of ``columns``, then one line
    per row; returns the table ``(columns, rows)`` as written, which a study
    returns for the CLI to print.

    Strings are written as they are and numbers to 17 significant digits,
    so that they read back exactly.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n{','.join(columns)}\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else format(x, ".17g")
                              for x in row) + "\n")
    return columns, rows


def write_diagnostics_csv(path, records) -> None:
    _write_csv(path, CSV_COLUMNS,
               ([getattr(rec, c) for c in CSV_COLUMNS] for rec in records))


# ---------------------------------------------------------------------------
# the study skeleton


class RunHalted(RuntimeError):
    """A study member halted before t_end; ``outcome`` is its `RunOutcome`."""

    def __init__(self, traj: Trajectory):
        super().__init__(f"study run halted ({traj.outcome.value}): {traj.message}")
        self.outcome = traj.outcome


def _completed(traj: Trajectory) -> Trajectory:
    """``traj`` if it reached t_end; a study cannot use a halted member."""
    if traj.outcome is not RunOutcome.COMPLETED:
        raise RunHalted(traj)
    return traj


def _next_node(marching):
    """The next node of a march, or None once it completed."""
    try:
        return next(marching)
    except StopIteration as stop:
        _completed(stop.value)
        return None


def _output(cfg: ExperimentConfig, out_dir) -> Path:
    """The study's output directory, created, with the config echo in it."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.cfg").write_text(format_config(cfg))
    return out


def _map(cfg: ExperimentConfig, fn, items) -> list:
    """``[fn(x) for x in items]``, on ``cfg.threads`` worker threads above 1.

    One thread runs in the calling thread, not in a pool of one: a worker
    thread allocates from its own malloc arena, which raises peak memory.
    The pool's module is imported only here, since importing it costs every
    study's start-up several milliseconds.
    """
    if cfg.threads <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(fn, items))


def _data(recipe, grid) -> list:
    """A member's datum ``[u0, phi0]``, the one-shot holder that `march`
    empties.  Data that cannot be built is a `ConfigError` on ``recipe``."""
    try:
        u0, phi0, _ = build_initial_data(recipe, grid)
    except ValueError as exc:   # u0 < 0, or a mollifier wider than L/4
        raise ConfigError("recipe", str(exc)) from None
    return [u0, phi0]


def _solve(cfg: ExperimentConfig, grid: Grid, data: list, stepper,
           **kwargs) -> Trajectory:
    """Run a member on ``grid`` from its datum holder ``[u0, phi0]``, which
    the run empties."""
    return run(data, stepper, cfg.params, p0=cfg.recipe.p0, grid=grid, **kwargs)


# ---------------------------------------------------------------------------
# studies


def run_single(cfg: ExperimentConfig, out_dir=None) -> tuple:
    """One run to t_end with its artifacts; returns (trajectory, diagnostics
    rows, decay summary table, out dir)."""
    for t in cfg.snapshot_times:
        if not 0.0 <= t <= cfg.stepper.t_end:
            raise ConfigError("snapshot_times", f"{t!r} is outside [0, t_end = "
                              f"{cfg.stepper.t_end!r}]")
    names = [f"{t:.6f}" for t in cfg.snapshot_times]   # snapshot_{name}.cfx
    if len(set(names)) < len(names):   # a later file would overwrite an earlier
        raise ConfigError("snapshot_times", f"{_joined(cfg.snapshot_times)}: two "
                          "times share a file name, which keeps 6 decimals")
    data = _data(cfg.recipe, cfg.grid)
    out = _output(cfg, out_dir)
    records = []
    traj = _solve(cfg, cfg.grid, data, cfg.stepper, mode=cfg.mode,
                  snapshot_times=cfg.snapshot_times,
                  snapshot_sink=lambda t, payload: write_snapshot(
                      out / f"snapshot_{t:.6f}.cfx", list(payload.values())),
                  recorders=(lambda node: records.append(node.row()),))
    write_diagnostics_csv(out / "diagnostics.csv", records)

    fits = []
    t_final = records[-1].t if records else 0.0   # t=0 halt
    window = (2.0, min(20.0, t_final))
    if window[1] > window[0]:
        for column, ref in (("c_linf", cfg.params.mu), ("u_linf", None),
                            ("v_l4", None)):
            series = [(r.t, getattr(r, column)) for r in records]
            try:
                f = fit_decay(series, window, quantity=column)
            except ValueError:
                continue  # nonpositive values or too few samples: no fit row
            fits.append((f.quantity, f.t_lo, f.t_hi, f.rate, f.prefactor, f.residual,
                         f.n_samples, "" if ref is None else ref))
    decay = _write_csv(out / "decay_summary.csv",
                       ("quantity", "t_lo", "t_hi", "rate", "prefactor", "residual",
                        "n_samples", "reference_rate"), fits)
    return traj, records, decay, out


def run_delta_sweep(cfg: ExperimentConfig, out_dir=None) -> tuple:
    """Mollification-width sweep: solve for each delta, compare neighbours at T.

    Returns the table of ``delta_sweep.csv`` and whether both differences
    decrease down the sweep, the numerical counterpart of the
    vanishing-regularization Cauchy property.
    """
    deltas = cfg.deltas
    if len(deltas) < 3:
        raise ConfigError("sweep.deltas", "need at least 3 widths")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ConfigError("sweep.deltas", "widths must be strictly decreasing")
    if any(not 0 < d <= cfg.grid.side_length / 4 for d in deltas):
        raise ConfigError("sweep.deltas", "widths must be positive and at most L/4")
    data = [_data(replace(cfg.recipe, delta=d), cfg.grid) for d in deltas]
    out = _output(cfg, out_dir)

    def final_uv(datum):   # only the samples: the rest of the node is dropped
        final = _completed(_solve(cfg, cfg.grid, datum, cfg.stepper)).final_state
        return final.u, final.v

    finals = _map(cfg, final_uv, data)
    rows = []
    for (d1, (u1, v1)), (d2, (u2, v2)) in zip(zip(deltas, finals),
                                              zip(deltas[1:], finals[1:])):
        rows.append((d1, d2, lp_norm(cfg.grid, u1 - u2, 2),
                     lp_norm(cfg.grid, v1 - v2, 2)))
    decreasing = all(r0[2] > r1[2] and r0[3] > r1[3]
                     for r0, r1 in zip(rows, rows[1:]))
    table = _write_csv(out / "delta_sweep.csv",
                       ("delta_coarse", "delta_fine", "du_l2", "dv_l2"), rows)
    return table, decreasing


def run_refinement(cfg: ExperimentConfig, out_dir=None) -> tuple:
    """Temporal Richardson study over dt_list and spatial study over n_list.

    Returns the table of ``refinement.csv``, whose rows are (kind, param,
    error, order): each temporal error is the distance to the run at the
    next smaller dt, each spatial error the distance to the finest grid at
    the smallest dt, and the order is observed between a row and the next
    (nan for the last).  A member is a
    (N, dt) pair, run once even when both studies use it, and each grid's
    datum is built once.  Every member steps at a fixed dt.
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
    if any(ns[-1] % n for n in ns):
        raise ConfigError("refine.n_list", "each resolution must divide the finest")
    dts = sorted(cfg.dt_list, reverse=True)
    try:   # every member's stepper, before any output
        steppers = {dt: replace(cfg.stepper, dt=dt) for dt in dts}
    except ValueError as exc:   # a dt above t_end
        raise ConfigError("refine.dt_list", f"{_joined(cfg.dt_list)}: {exc}") from None
    in_time = [(cfg.grid.resolution, dt) for dt in dts]
    in_space = [(n, dts[-1]) for n in ns]
    grids = {n: Grid(cfg.grid.side_length, n)
             for n in dict.fromkeys((cfg.grid.resolution, *ns))}
    data = {n: _data(cfg.recipe, grid) for n, grid in grids.items()}
    out = _output(cfg, out_dir)

    def final_u(member):
        n, dt = member
        holder = list(data[n])   # a fresh one: each grid's datum serves every dt
        return _completed(_solve(cfg, grids[n], holder, steppers[dt])).final_state.u

    members = list(dict.fromkeys(in_time + in_space))
    finals = dict(zip(members, _map(cfg, final_u, members)))

    # (param, error, step size) per study
    temporal = [(dt, lp_norm(grids[n], finals[n, dt] - finals[finer], 2), dt)
                for (n, dt), finer in zip(in_time, in_time[1:])]
    spatial = []
    for n, dt in in_space[:-1]:
        k = ns[-1] // n   # the finest grid's samples at this grid's points
        spatial.append((n, lp_norm(grids[n], finals[n, dt]
                                   - finals[in_space[-1]][::k, ::k], 2), 1.0 / n))

    rows = []
    for kind, errs in (("temporal", temporal), ("spatial", spatial)):
        for i, (param, err, h) in enumerate(errs):
            order = float("nan")
            if i + 1 < len(errs):
                _, err_next, h_next = errs[i + 1]
                ratio = max(err / max(err_next, 1e-300), 1e-300)
                order = math.log(ratio) / math.log(h / h_next)
            rows.append((kind, param, err, order))
    return _write_csv(out / "refinement.csv", ("kind", "param", "error", "order"), rows)


def run_cross_validate(cfg: ExperimentConfig, out_dir=None) -> tuple:
    """Run both solvers from one datum; report max-in-time L2 discrepancies.

    Each mode starts from the same datum [u0, phi0] through the log-gradient
    substitution, so the two describe the same solution and start from the
    same node; their drift between record times measures the combined
    discretization error of the two schemes.  The two solvers step in
    lockstep: at each record of the transformed run, a hook advances the
    original-mode `march` to its next record and compares the pair on the
    spot, so the study holds one node per mode whatever the number of
    records.  Each side's u and v are its node's; the original node's v is
    -(1/mu) grad ln c from its spectrum of ln c.  A datum whose chemical
    exp(-mu phi0) is at or below the extinction floor is a `ConfigError`.
    Neither run builds a diagnostics row.  A pair at different times or a
    run with a record left over is an error, and a halted run of either
    mode raises `RunHalted`.  Both modes step at a fixed dt, scaled with
    the grid spacing.  Returns the table of ``cross_validate.csv``.
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
        if -cfg.params.mu * data[1].max() <= math.log(C_FLOOR):
            raise ConfigError("recipe", "matched chemical is at or below the "
                              f"extinction floor {C_FLOOR}")
        members.append((stepper, grid, data))
    out = _output(cfg, out_dir)

    def discrepancies(member):
        stepper, grid, data = member
        # one datum, a holder per mode: each march empties its own
        partner = march(list(data), stepper, cfg.params, p0=cfg.recipe.p0,
                        mode="original", grid=grid)
        max_du = 0.0
        max_dv = 0.0

        def compare(node):
            nonlocal max_du, max_dv
            other = _next_node(partner)
            if other is None:
                raise RuntimeError(f"cross-validation: transformed record at "
                                   f"t={node.t} has no original record")
            if other.t != node.t:
                raise RuntimeError(f"cross-validation: original record at "
                                   f"t={other.t} and transformed record at "
                                   f"t={node.t} are not at the same time")
            du = lp_norm(grid, node.u - other.u, 2)
            dv_sq = 0.0   # one N x N difference at a time, summed as lp_norm sums
            for vo, vt in zip(other.v, node.v):
                d = vo - vt
                d *= d
                dv_sq += d.sum()
            dv = math.sqrt(dv_sq * grid.cell_area)
            max_du = max(max_du, du)
            max_dv = max(max_dv, dv)

        # the transformed run goes through `run`, as every study's first run
        # does: the first entry into `run` marks where stepping starts
        # (perfbench's setup_s ends there)
        _completed(_solve(cfg, grid, data, stepper, recorders=(compare,)))
        other = _next_node(partner)
        if other is not None:
            raise RuntimeError(f"cross-validation: original record at "
                               f"t={other.t} has no transformed record")
        return (grid.resolution, stepper.dt, max_du, max_dv)

    return _write_csv(out / "cross_validate.csv",
                      ("N", "dt", "max_u_discrepancy", "max_v_discrepancy"),
                      _map(cfg, discrepancies, members))


def run_theta_scan(cfg: ExperimentConfig, out_dir=None) -> tuple:
    """Amplitude ladder: measure theta0/M and classify each run's outcome.

    Returns the table of ``theta_scan.csv``, a row per amplitude.  ``decayed``
    means the sup-norm perturbation at the end is at most half its value at
    the first settled record node (t >= 1); the energy bound check compares
    the running A1 at the last record node against 1.5 * theta0; a member
    reads both from its nodes and builds no diagnostics row.  A member that
    halts is labelled with its outcome, and one whose data cannot be built
    ``invalid_data``.
    """
    if not cfg.amplitudes:
        raise ConfigError("scan.amplitudes", "amplitude ladder is required")
    if any(a1 >= a2 for a1, a2 in zip(cfg.amplitudes, cfg.amplitudes[1:])):
        raise ConfigError("scan.amplitudes", "ladder must be strictly increasing")
    out = _output(cfg, out_dir)

    def scan_one(amp):
        try:   # data = [u0, phi0], the holder that the run empties
            *data, summary = build_initial_data(replace(cfg.recipe, amplitude=amp),
                                                cfg.grid)
        except ValueError:
            return (amp, float("nan"), float("nan"), "invalid_data",
                    False, float("nan"), float("nan"), False, False)
        a1 = float("nan")   # a run can halt at its t=0 node, before any record
        settled = []        # u_linf at each record node from t = 1 on

        def keep(node):
            nonlocal a1
            a1 = node.a1
            if node.t >= 1.0:
                settled.append(sup_deviation(node.u))

        traj = _solve(cfg, cfg.grid, data, cfg.stepper, recorders=(keep,))
        bound = 1.5 * summary.theta0_raw
        a1_ok = a1 <= bound if summary.theta0_raw > 0 else True
        lemma34_ok = bool(settled) and all(x <= 0.25 for x in settled)
        if traj.outcome is RunOutcome.COMPLETED and settled:
            decayed = settled[-1] <= 0.5 * settled[0]
        else:
            decayed = False
        if traj.outcome is not RunOutcome.COMPLETED:
            label = traj.outcome.value   # blowup or chemical_extinction
        else:
            label = "completed_decay" if decayed else "completed_no_decay"
        return (amp, summary.theta0, summary.M, label, decayed, a1, bound,
                a1_ok, lemma34_ok)

    return _write_csv(out / "theta_scan.csv",
                      ("amplitude", "theta0", "M", "outcome", "decayed", "a1",
                       "a1_bound", "a1_ok", "lemma34_ok"),
                      _map(cfg, scan_one, cfg.amplitudes))
