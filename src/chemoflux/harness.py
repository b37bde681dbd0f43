"""Experiment orchestration: config files, canonical studies, persistence.

Configs are flat ``key = value`` text with dotted section names
(``grid.N = 256``).  `_SCHEMA` declares every key once, as a row of
(key, section, attribute, parser, formatter): the key sets ``attribute``
of the ``section`` part of an `ExperimentConfig` (of the config itself
for section None), ``parser`` reads the value text and ``formatter``
writes it back.  `parse_config` sets only the keys a file gives, leaving
the dataclass defaults, rejects keys outside the table and parses the
``grid.*`` rows first, because mollifier widths and sweep deltas accept
the ``Xh`` suffix meaning X grid cells.  A value that fails its own range
check is reported against its key, and values that contradict each other
(``stepper.dt`` above ``stepper.t_end``) against their section.
`format_config` echoes the rows in table order, leaving out empty lists
and the rows without a formatter (``xval.n_list``, a parse-only alias of
``refine.n_list``).

Every study has one skeleton: it checks its own inputs; `_output` makes
the output directory and writes the config echo there; `_solve` builds and
runs each member, the only place where ``mode`` picks the companion, and
`_map` maps members over ``threads`` worker threads; `_completed` raises
`RunHalted`, carrying the `RunOutcome`, for a member that halted where the
study needs a completed run; the study writes its table through
`_write_csv` (a ``# chemoflux-diagnostics-v1`` line, a header line,
numbers to 17 significant digits) and returns its rows.  Cross-validation
steps its two solvers in lockstep, the original mode's `march` inside a
hook of the transformed mode's `run`, so it holds one state per mode.
Runs are byte-deterministic for a fixed config with one thread.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cole_hopf import C_FLOOR, ChemistryParams, forward_transform
from .diagnostics import CSV_COLUMNS, SCHEMA_VERSION, fit_decay
from .evolve import RunOutcome, StepperConfig, Trajectory, march, run
from .fields import Grid, ParameterError, ScalarField, VectorField, lp_norm
from .initial_data import InitialDataRecipe, build_initial_data, potential_of
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


def _numbers(cast=float, arity=None):
    """Parser of comma-separated numbers, exactly ``arity`` of them if given."""
    def parse(text):
        items = tuple(cast(x) for x in text.split(",") if x.strip())
        if arity is not None and len(items) != arity:
            raise ValueError(f"expected {arity} numbers, got {len(items)}")
        return items
    return parse


def _resolutions(text):
    """Comma-separated grid resolutions, each one that `Grid` accepts."""
    ns = _numbers(int)(text)
    for n in ns:
        Grid(1.0, n)   # its ParameterError is a ValueError, reported on the key
    return ns


def _entries(arity):
    """Parser of ';'-separated entries of ``arity`` numbers each."""
    entry = _numbers(float, arity)
    return lambda text: tuple(entry(part) for part in text.split(";") if part.strip())


def _width(text, spacing):
    """A width in physical units, or ``Xh`` for X grid cells of ``spacing``."""
    text = text.strip()
    return float(text[:-1]) * spacing if text.endswith("h") else float(text)


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
    ("grid.L", "grid", "side_length", float, repr),
    ("grid.N", "grid", "resolution", int, str),
    ("params.chi", "params", "chi", float, repr),
    ("params.mu", "params", "mu", float, repr),
    ("params.xi", "params", "xi", float, repr),
    ("recipe.kind", "recipe", "kind", str, str),
    ("recipe.amplitude", "recipe", "amplitude", float, repr),
    ("recipe.p0", "recipe", "p0", float, repr),
    ("recipe.delta", "recipe", "delta", _width, repr),
    ("recipe.seed", "recipe", "seed", int, str),
    ("recipe.random_disks", "recipe", "random_disks", int, str),
    ("recipe.bump_center", "recipe", "bump_center", _numbers(float, 2), _joined),
    ("recipe.bump_sharpness", "recipe", "bump_sharpness", float, repr),
    ("stepper.scheme", "stepper", "scheme", str, str),
    ("stepper.dt", "stepper", "dt", float, repr),
    ("stepper.dt_mode", "stepper", "dt_mode", str, str),
    ("stepper.cfl_number", "stepper", "cfl_number", float, repr),
    ("stepper.t_end", "stepper", "t_end", float, repr),
    ("stepper.record_every", "stepper", "record_every", int, str),
    ("recipe.disks", "recipe", "disks", _entries(4), _joined_entries),
    ("recipe.stripes", "recipe", "stripes", _entries(3), _joined_entries),
    ("recipe.modes", "recipe", "potential_modes", _entries(4), _joined_entries),
    ("snapshot_times", None, "snapshot_times", _numbers(), _joined),
    ("sweep.deltas", None, "deltas", _widths, _joined),
    # parse-only alias, read before refine.n_list so that the latter wins
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
        raw[key.strip()] = value.strip()
    known = {row[0] for row in _SCHEMA}
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown key")

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
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("path", f"cannot read {path}: {exc.strerror}") from None
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


def _write_csv(path, header, rows) -> None:
    """A table: the schema line, the header, then one line per row.

    Strings are written as they are and numbers to 17 significant digits,
    so that they read back exactly.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n{header}\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else format(x, ".17g")
                              for x in row) + "\n")


def write_diagnostics_csv(path, records) -> None:
    _write_csv(path, ",".join(CSV_COLUMNS),
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


def _next_record(marching):
    """The next ``(state, record)`` of a march, or None once it completed."""
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
    """
    if cfg.threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(fn, items))


def _matched_chemical(v0: VectorField, mu: float) -> ScalarField:
    """c0 consistent with v0 through the log-gradient substitution."""
    phi = potential_of(v0)
    with np.errstate(over="ignore"):   # inf c0: `run` halts it at t=0
        return ScalarField(v0.grid, np.exp(-mu * phi.values), check=False)


def _initial_data(recipe, grid):
    """`build_initial_data`; data it cannot build is a `ConfigError` on ``recipe``."""
    try:
        return build_initial_data(recipe, grid)
    except ValueError as exc:   # u0 < 0, or a mollifier wider than L/4
        raise ConfigError("recipe", str(exc)) from None


def _solve(cfg: ExperimentConfig, recipe, grid, stepper, mode="transformed",
           **kwargs) -> Trajectory:
    """Build ``recipe`` on ``grid`` and run it; original ``mode`` runs from
    the matched chemical, the companion that selects that system."""
    u0, v0, _ = _initial_data(recipe, grid)
    companion = _matched_chemical(v0, cfg.params.mu) if mode == "original" else v0
    return run(u0, companion, stepper, cfg.params, p0=cfg.recipe.p0, **kwargs)


# ---------------------------------------------------------------------------
# studies


def run_single(cfg: ExperimentConfig, out_dir=None) -> tuple:
    """One run to t_end with its artifacts; returns (trajectory, fits, out dir)."""
    for t in cfg.snapshot_times:
        if not 0.0 <= t <= cfg.stepper.t_end:
            raise ConfigError("snapshot_times", f"{t!r} is outside [0, t_end = "
                              f"{cfg.stepper.t_end!r}]")
    out = _output(cfg, out_dir)
    traj = _solve(cfg, cfg.recipe, cfg.grid, cfg.stepper, cfg.mode,
                  snapshot_times=cfg.snapshot_times)
    write_diagnostics_csv(out / "diagnostics.csv", traj.records)
    for t, payload in traj.snapshots:
        write_snapshot(out / f"snapshot_{t:.6f}.cfx", list(payload.values()))

    fits = []   # (DecayFit, reference rate or None)
    t_final = traj.records[-1].t if traj.records else 0.0   # t=0 halt
    window = (2.0, min(20.0, t_final))
    if window[1] > window[0]:
        for column, ref in (("c_linf", cfg.params.mu), ("u_linf", None),
                            ("v_l4", None)):
            series = [(r.t, getattr(r, column)) for r in traj.records]
            try:
                fits.append((fit_decay(series, window, quantity=column), ref))
            except ValueError:
                continue  # nonpositive values or too few samples: no fit row
    _write_csv(out / "decay_summary.csv",
               "quantity,t_lo,t_hi,rate,prefactor,residual,n_samples,reference_rate",
               ((f.quantity, f.t_lo, f.t_hi, f.rate, f.prefactor, f.residual,
                 f.n_samples, "" if ref is None else ref) for f, ref in fits))
    return traj, fits, out


def run_delta_sweep(cfg: ExperimentConfig, out_dir=None) -> tuple:
    """Mollification-width sweep: solve for each delta, compare neighbours at T.

    Returns the rows (delta_coarse, delta_fine, du_l2, dv_l2) and whether
    both differences decrease down the sweep, the numerical counterpart of
    the vanishing-regularization Cauchy property.
    """
    deltas = cfg.deltas
    if len(deltas) < 3:
        raise ConfigError("sweep.deltas", "need at least 3 widths")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ConfigError("sweep.deltas", "widths must be strictly decreasing")
    if any(not 0 < d <= cfg.grid.side_length / 4 for d in deltas):
        raise ConfigError("sweep.deltas", "widths must be positive and at most L/4")
    out = _output(cfg, out_dir)

    def solve(delta):
        recipe = replace(cfg.recipe, delta=delta)
        return _completed(_solve(cfg, recipe, cfg.grid, cfg.stepper)).final_state

    finals = _map(cfg, solve, deltas)

    rows = []
    for (d1, s1), (d2, s2) in zip(zip(deltas, finals), zip(deltas[1:], finals[1:])):
        du = lp_norm(ScalarField(cfg.grid, s1.u.values - s2.u.values, check=False), 2)
        dv = lp_norm(VectorField(cfg.grid, s1.v.values - s2.v.values, check=False), 2)
        rows.append((d1, d2, du, dv))
    decreasing = all(r0[2] > r1[2] and r0[3] > r1[3]
                     for r0, r1 in zip(rows, rows[1:]))
    _write_csv(out / "delta_sweep.csv", "delta_coarse,delta_fine,du_l2,dv_l2", rows)
    return rows, decreasing


def run_refinement(cfg: ExperimentConfig, out_dir=None) -> list:
    """Temporal Richardson study over dt_list and spatial study over n_list.

    Returns the rows (kind, param, error, order): each temporal error is the
    distance to the run at the next smaller dt, each spatial error the
    distance to the finest grid at the smallest dt, and the order is
    observed between a row and the next (nan for the last).
    """
    for key, items in (("refine.dt_list", cfg.dt_list), ("refine.n_list", cfg.n_list)):
        if len(items) < 3 or len(set(items)) < len(items):   # a repeat has no order
            raise ConfigError(key, "need at least 3 entries, all distinct")
    ns = sorted(cfg.n_list)
    if any(ns[-1] % n for n in ns):
        raise ConfigError("refine.n_list", "each resolution must divide the finest")
    out = _output(cfg, out_dir)

    def final_u(grid, dt):
        stepper = replace(cfg.stepper, dt=dt, dt_mode="fixed")
        return _completed(_solve(cfg, cfg.recipe, grid, stepper)).final_state.u.values

    def l2(grid, values):
        return lp_norm(ScalarField(grid, values, check=False), 2)

    # (param, error, step size) per study
    dts = sorted(cfg.dt_list, reverse=True)
    finals = [final_u(cfg.grid, dt) for dt in dts]
    temporal = [(dt, l2(cfg.grid, a - b), dt)
                for dt, a, b in zip(dts, finals, finals[1:])]
    grids = [Grid(cfg.grid.side_length, n) for n in ns]
    per_n = [final_u(grid, min(cfg.dt_list)) for grid in grids]
    spatial = []
    for n, grid, u in zip(ns, grids, per_n[:-1]):
        k = ns[-1] // n   # the finest grid's samples at this grid's points
        spatial.append((n, l2(grid, u - per_n[-1][::k, ::k]), 1.0 / n))

    rows = []
    for kind, errs in (("temporal", temporal), ("spatial", spatial)):
        for i, (param, err, h) in enumerate(errs):
            order = float("nan")
            if i + 1 < len(errs):
                _, err_next, h_next = errs[i + 1]
                ratio = max(err / max(err_next, 1e-300), 1e-300)
                order = math.log(ratio) / math.log(h / h_next)
            rows.append((kind, param, err, order))
    _write_csv(out / "refinement.csv", "kind,param,error,order", rows)
    return rows


def run_cross_validate(cfg: ExperimentConfig, out_dir=None) -> list:
    """Run both solvers from matched data; report max-in-time L2 discrepancies.

    The chemical initial state is synthesized from the drift potential, so
    the two modes describe the same solution through the log-gradient
    substitution; their drift between record times measures the combined
    discretization error of the two schemes.  The two solvers step in
    lockstep: at each record of the transformed run, a hook advances the
    original-mode `march` to its next record and compares the pair on the
    spot, so the study holds one state per mode whatever the number of
    records.  A pair at different times or a run with a record left over
    is an error, and a halted run of either mode raises `RunHalted`.
    Returns the rows (N, dt, max_u_discrepancy, max_v_discrepancy).
    """
    ns = cfg.n_list if cfg.n_list else (cfg.grid.resolution,)
    try:   # every member's stepper, before any output
        steppers = [replace(cfg.stepper, dt=cfg.stepper.dt * (ns[0] / n),
                            dt_mode="fixed") for n in ns]
    except ValueError as exc:   # a coarse member's dt exceeds t_end
        raise ConfigError("xval.n_list", f"{_joined(ns)}: {exc}") from None
    out = _output(cfg, out_dir)
    rows = []
    for n, stepper in zip(ns, steppers):
        grid = Grid(cfg.grid.side_length, n)
        u0, v0, _ = _initial_data(cfg.recipe, grid)
        c0 = _matched_chemical(v0, cfg.params.mu)
        if c0.values.min() <= C_FLOOR:
            raise ConfigError("recipe", "matched chemical is at or below the "
                              f"extinction floor {C_FLOOR}")
        partner = march(u0, c0, stepper, cfg.params, p0=cfg.recipe.p0)
        max_du = 0.0
        max_dv = 0.0

        def compare(st, _):
            nonlocal max_du, max_dv
            pair = _next_record(partner)
            if pair is None:
                raise RuntimeError(f"cross-validation: transformed record at "
                                   f"t={st.t} has no original record")
            so = pair[0]
            if so.t != st.t:
                raise RuntimeError(f"cross-validation: original record at "
                                   f"t={so.t} and transformed record at "
                                   f"t={st.t} are not at the same time")
            du = lp_norm(ScalarField(grid, st.u.values - so.u.values, check=False), 2)
            v_from_c = forward_transform(so.c, cfg.params)
            dv = lp_norm(VectorField(grid, v_from_c.values - st.v.values,
                                     check=False), 2)
            max_du = max(max_du, du)
            max_dv = max(max_dv, dv)

        # the transformed run goes through `run`, so that the first entry
        # into `run` still marks where stepping starts (perfbench's setup_s)
        _completed(run(u0, v0, stepper, cfg.params, p0=cfg.recipe.p0,
                       recorders=(compare,)))
        pair = _next_record(partner)
        if pair is not None:
            raise RuntimeError(f"cross-validation: original record at "
                               f"t={pair[0].t} has no transformed record")
        rows.append((n, stepper.dt, max_du, max_dv))
    _write_csv(out / "cross_validate.csv",
               "N,dt,max_u_discrepancy,max_v_discrepancy", rows)
    return rows


def run_theta_scan(cfg: ExperimentConfig, out_dir=None) -> list:
    """Amplitude ladder: measure theta0/M and classify each run's outcome.

    Returns the rows of ``theta_scan.csv``, one per amplitude.  ``decayed``
    means the sup-norm perturbation at the end is at most half its value at
    the first settled record (t >= 1); the energy bound check compares the
    running A1 against 1.5 * theta0.  A member that halts is labelled with
    its outcome, and one whose data cannot be built ``invalid_data``.
    """
    if not cfg.amplitudes:
        raise ConfigError("scan.amplitudes", "amplitude ladder is required")
    if any(a1 >= a2 for a1, a2 in zip(cfg.amplitudes, cfg.amplitudes[1:])):
        raise ConfigError("scan.amplitudes", "ladder must be strictly increasing")
    out = _output(cfg, out_dir)

    def scan_one(amp):
        recipe = cfg.recipe.scaled(amp)
        try:
            u0, v0, summary = build_initial_data(recipe, cfg.grid)
        except ValueError:
            return (amp, float("nan"), float("nan"), "invalid_data",
                    False, float("nan"), float("nan"), False, False)
        traj = run(u0, v0, cfg.stepper, cfg.params, p0=cfg.recipe.p0)
        # a run can halt at its t=0 node, before any record
        a1 = traj.records[-1].a1 if traj.records else float("nan")
        bound = 1.5 * summary.theta0_raw
        a1_ok = a1 <= bound if summary.theta0_raw > 0 else True
        settled = [r for r in traj.records if r.t >= 1.0]
        lemma34_ok = bool(settled) and all(r.u_linf <= 0.25 for r in settled)
        if traj.outcome is RunOutcome.COMPLETED and settled:
            decayed = traj.records[-1].u_linf <= 0.5 * settled[0].u_linf
        else:
            decayed = False
        if traj.outcome is not RunOutcome.COMPLETED:
            label = traj.outcome.value   # blowup or chemical_extinction
        else:
            label = "completed_decay" if decayed else "completed_no_decay"
        return (amp, summary.theta0, summary.M, label, decayed, a1, bound,
                a1_ok, lemma34_ok)

    rows = _map(cfg, scan_one, cfg.amplitudes)
    _write_csv(out / "theta_scan.csv",
               "amplitude,theta0,M,outcome,decayed,a1,a1_bound,a1_ok,lemma34_ok",
               rows)
    return rows
