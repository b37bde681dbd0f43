"""Experiment orchestration: config files, canonical studies, persistence.

Configs are flat ``key = value`` text with dotted section names
(``grid.N = 256``).  `_SCHEMA` declares every key once, as a row of
(key, section, attribute, parser, formatter, default): the key sets
``attribute`` of the ``section`` part of an `ExperimentConfig` (of the
config itself when the section is None), ``parser`` reads the value text
and ``formatter`` writes it back.  `parse_config` rejects keys outside the
table and parses the ``grid.*`` rows first, because mollifier widths and
sweep deltas accept the ``Xh`` suffix meaning X grid cells.  A value
that fails its own range check is reported against its key, and values
that contradict each other (``stepper.dt`` above ``stepper.t_end``)
against their section.
`format_config` echoes the rows in table order, leaving out empty lists
and the rows without a formatter (``xval.n_list``, a parse-only alias of
``refine.n_list``).

Every study writes its tables through `_write_csv` in one format (a
``# chemoflux-diagnostics-v1`` line, a header line, numbers to 17
significant digits) plus an echo copy of the parsed configuration, and
runs are byte-deterministic for a fixed config in single-threaded
execution.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cole_hopf import C_FLOOR, ChemistryParams, forward_transform
from .diagnostics import CSV_COLUMNS, SCHEMA_VERSION, fit_decay
from .evolve import (EXIT_CODES, RunOutcome, StepperConfig, Trajectory, run)
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
    study: str
    grid: Grid
    params: ChemistryParams
    recipe: InitialDataRecipe
    stepper: StepperConfig
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
    ("study", None, "study", _one_of(*STUDIES), str, "single_run"),
    ("out_dir", None, "out_dir", str, str, "out"),
    ("mode", None, "mode", _one_of("transformed", "original"), str, "transformed"),
    ("threads", None, "threads", int, str, 1),
    ("grid.L", "grid", "side_length", float, repr, 16 * math.pi),
    ("grid.N", "grid", "resolution", int, str, 256),
    ("params.chi", "params", "chi", float, repr, 1.0),
    ("params.mu", "params", "mu", float, repr, 1.0),
    ("params.xi", "params", "xi", float, repr, 1.0),
    ("recipe.kind", "recipe", "kind", str, str, "piecewise_constant_disks"),
    ("recipe.amplitude", "recipe", "amplitude", float, repr, 0.0),
    ("recipe.p0", "recipe", "p0", float, repr, 6.0),
    ("recipe.delta", "recipe", "delta", _width, repr, 0.0),
    ("recipe.seed", "recipe", "seed", int, str, 0),
    ("recipe.random_disks", "recipe", "random_disks", int, str, 0),
    ("recipe.bump_center", "recipe", "bump_center", _numbers(float, 2), _joined,
     (0.5, 0.5)),
    ("recipe.bump_sharpness", "recipe", "bump_sharpness", float, repr, 16.0),
    ("stepper.scheme", "stepper", "scheme", str, str, "imex_cn"),
    ("stepper.dt", "stepper", "dt", float, repr, 0.01),
    ("stepper.dt_mode", "stepper", "dt_mode", str, str, "fixed"),
    ("stepper.cfl_number", "stepper", "cfl_number", float, repr, 0.5),
    ("stepper.t_end", "stepper", "t_end", float, repr, 1.0),
    ("stepper.record_every", "stepper", "record_every", int, str, 1),
    ("recipe.disks", "recipe", "disks", _entries(4), _joined_entries, ()),
    ("recipe.stripes", "recipe", "stripes", _entries(3), _joined_entries, ()),
    ("recipe.modes", "recipe", "potential_modes", _entries(4), _joined_entries, ()),
    ("snapshot_times", None, "snapshot_times", _numbers(), _joined, ()),
    ("sweep.deltas", None, "deltas", _widths, _joined, ()),
    # parse-only alias, read before refine.n_list so that the latter wins
    ("xval.n_list", None, "n_list", _numbers(int), None, ()),
    ("refine.n_list", None, "n_list", _numbers(int), _joined, ()),
    ("refine.dt_list", None, "dt_list", _numbers(), _joined, ()),
    ("scan.amplitudes", None, "amplitudes", _numbers(), _joined, ()),
)


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
        for key, section, attr, parse, _, default in rows:
            if key not in raw:
                values[section].setdefault(attr, default)
                continue
            text = raw[key]
            try:
                value = (parse(text, spacing) if parse in (_width, _widths)
                         else parse(text))
            except ValueError as exc:
                raise ConfigError(key, f"cannot parse {text!r}: {exc}") from None
            values[section][attr] = value

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
    for key, section, attr, _, fmt, _ in _SCHEMA:
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
# studies


@dataclass
class SingleRunResult:
    trajectory: Trajectory
    summary: object
    outcome: RunOutcome
    fits: list
    out_dir: Path

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.outcome]


def _matched_chemical(v0: VectorField, mu: float) -> ScalarField:
    """c0 consistent with v0 through the log-gradient substitution."""
    phi = potential_of(v0)
    return ScalarField(v0.grid, np.exp(-mu * phi.values), check=False)


def run_single(cfg: ExperimentConfig, out_dir=None) -> SingleRunResult:
    """One run to t_end; writes diagnostics, decay summary, snapshots, echo."""
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    u0, v0, summary = build_initial_data(cfg.recipe, cfg.grid)
    if cfg.mode == "original":
        c0 = _matched_chemical(v0, cfg.params.mu)
        traj = run(u0, c0, cfg.stepper, cfg.params, mode="original",
                   p0=cfg.recipe.p0, snapshot_times=cfg.snapshot_times)
    else:
        traj = run(u0, v0, cfg.stepper, cfg.params, mode="transformed",
                   p0=cfg.recipe.p0, snapshot_times=cfg.snapshot_times)

    write_diagnostics_csv(out / "diagnostics.csv", traj.records)
    (out / "config_echo.cfg").write_text(format_config(cfg))
    for t, payload in traj.snapshots:
        write_snapshot(out / f"snapshot_{t:.6f}.cfx", list(payload.values()))

    fits = []
    t_final = traj.records[-1].t if traj.records else 0.0   # t=0 extinction
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
    return SingleRunResult(trajectory=traj, summary=summary,
                           outcome=traj.outcome, fits=fits, out_dir=out)


@dataclass
class DeltaSweepResult:
    deltas: tuple
    rows: list           # (delta_coarse, delta_fine, du_l2, dv_l2)
    cauchy_decreasing: bool
    out_dir: Path


def run_delta_sweep(cfg: ExperimentConfig, out_dir=None) -> DeltaSweepResult:
    """Mollification-width sweep: solve for each delta, compare neighbours at T.

    The difference table decreasing down the sweep is the numerical
    counterpart of the vanishing-regularization Cauchy property.
    """
    deltas = cfg.deltas
    if len(deltas) < 3:
        raise ConfigError("sweep.deltas", "need at least 3 widths")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ConfigError("sweep.deltas", "widths must be strictly decreasing")
    if any(d <= 0 for d in deltas):
        raise ConfigError("sweep.deltas", "widths must be positive")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def solve(delta):
        u0, v0, _ = build_initial_data(replace(cfg.recipe, delta=delta), cfg.grid)
        traj = run(u0, v0, cfg.stepper, cfg.params, mode="transformed",
                   p0=cfg.recipe.p0)
        if traj.outcome is not RunOutcome.COMPLETED:
            raise RuntimeError(f"delta={delta} run halted: {traj.message}")
        return traj.final_state

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            finals = list(pool.map(solve, deltas))
    else:
        finals = [solve(d) for d in deltas]

    rows = []
    for (d1, s1), (d2, s2) in zip(zip(deltas, finals), zip(deltas[1:], finals[1:])):
        du = lp_norm(ScalarField(cfg.grid, s1.u.values - s2.u.values, check=False), 2)
        dv = lp_norm(VectorField(cfg.grid, s1.v.values - s2.v.values, check=False), 2)
        rows.append((d1, d2, du, dv))
    decreasing = all(r0[2] > r1[2] and r0[3] > r1[3]
                     for r0, r1 in zip(rows, rows[1:]))
    _write_csv(out / "delta_sweep.csv", "delta_coarse,delta_fine,du_l2,dv_l2", rows)
    (out / "config_echo.cfg").write_text(format_config(cfg))
    return DeltaSweepResult(deltas=deltas, rows=rows,
                            cauchy_decreasing=decreasing, out_dir=out)


def subsample(values: np.ndarray, n_target: int) -> np.ndarray:
    """Restrict a fine field to a coarser grid sharing its sample points."""
    n = values.shape[0]
    if n % n_target != 0:
        raise ValueError(f"coarse resolution {n_target} must divide {n}")
    step = n // n_target
    return values[::step, ::step].copy()


@dataclass
class RefinementResult:
    temporal_rows: list   # (dt, error_to_next, order)
    spatial_rows: list    # (N, error_to_reference, order)
    out_dir: Path


def run_refinement(cfg: ExperimentConfig, out_dir=None) -> RefinementResult:
    """Temporal Richardson study over dt_list and spatial study over n_list."""
    if len(cfg.dt_list) < 3:
        raise ConfigError("refine.dt_list", "need at least 3 step sizes")
    if len(cfg.n_list) < 3:
        raise ConfigError("refine.n_list", "need at least 3 resolutions")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def final_u(grid, dt):
        u0, v0, _ = build_initial_data(cfg.recipe, grid)
        stepper = replace(cfg.stepper, dt=dt, dt_mode="fixed")
        traj = run(u0, v0, stepper, cfg.params, mode="transformed",
                   p0=cfg.recipe.p0)
        if traj.outcome is not RunOutcome.COMPLETED:
            raise RuntimeError(f"refinement run halted: {traj.message}")
        return traj.final_state.u.values

    # temporal study on the configured grid
    dts = sorted(cfg.dt_list, reverse=True)
    finals = [final_u(cfg.grid, dt) for dt in dts]
    temporal = []
    errs = []
    for (dt, a), b in zip(zip(dts, finals), finals[1:]):
        err = lp_norm(ScalarField(cfg.grid, a - b, check=False), 2)
        errs.append((dt, err))
    for i, (dt, err) in enumerate(errs):
        if i + 1 < len(errs):
            ratio = err / max(errs[i + 1][1], 1e-300)
            order = math.log(ratio) / math.log(dts[i] / dts[i + 1])
        else:
            order = float("nan")
        temporal.append((dt, err, order))

    # spatial study against the finest grid, common fixed dt
    ns = sorted(cfg.n_list)
    dt_ref = min(cfg.dt_list)
    per_n = {}
    for n in ns:
        per_n[n] = final_u(Grid(cfg.grid.side_length, n), dt_ref)
    ref = per_n[ns[-1]]
    spatial = []
    sp_errs = []
    for n in ns[:-1]:
        coarse_ref = subsample(ref, n)
        err = lp_norm(ScalarField(Grid(cfg.grid.side_length, n),
                                  per_n[n] - coarse_ref, check=False), 2)
        sp_errs.append((n, err))
    for i, (n, err) in enumerate(sp_errs):
        if i + 1 < len(sp_errs):
            ratio = err / max(sp_errs[i + 1][1], 1e-300)
            order = math.log2(max(ratio, 1e-300)) / math.log2(ns[i + 1] / ns[i])
        else:
            order = float("nan")
        spatial.append((n, err, order))

    _write_csv(out / "refinement.csv", "kind,param,error,order",
               [("temporal", *row) for row in temporal]
               + [("spatial", *row) for row in spatial])
    (out / "config_echo.cfg").write_text(format_config(cfg))
    return RefinementResult(temporal_rows=temporal, spatial_rows=spatial, out_dir=out)


def _require_completed(traj: Trajectory) -> None:
    if traj.outcome is not RunOutcome.COMPLETED:
        raise RuntimeError(f"cross-validation run halted: {traj.message}")


@dataclass
class CrossValidateResult:
    rows: list   # (N, dt, max_u_discrepancy, max_v_discrepancy)
    out_dir: Path


def run_cross_validate(cfg: ExperimentConfig, out_dir=None) -> CrossValidateResult:
    """Run both solvers from matched data; report max-in-time L2 discrepancies.

    The chemical initial state is synthesized from the drift potential, so
    the two modes describe the same solution through the log-gradient
    substitution; their drift between record times measures the combined
    discretization error of the two schemes.
    """
    ns = cfg.n_list if cfg.n_list else (cfg.grid.resolution,)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in ns:
        grid = Grid(cfg.grid.side_length, n)
        scale = ns[0] / n
        stepper = replace(cfg.stepper, dt=cfg.stepper.dt * scale, dt_mode="fixed")
        u0, v0, _ = build_initial_data(cfg.recipe, grid)
        c0 = _matched_chemical(v0, cfg.params.mu)
        if c0.values.min() <= C_FLOOR:
            raise ConfigError("recipe", "matched chemical is at or below the "
                              f"extinction floor {C_FLOOR}")
        # keep the transformed run's states, then compare each record of the
        # original run against the oldest kept state as it happens
        kept = deque()
        traj_t = run(u0, v0, stepper, cfg.params, mode="transformed",
                     p0=cfg.recipe.p0,
                     recorders=(lambda state, rec: kept.append(state),))
        _require_completed(traj_t)
        max_du = 0.0
        max_dv = 0.0

        def compare(so, rec):
            nonlocal max_du, max_dv
            if not kept or kept[0].t != so.t:
                raise RuntimeError(f"cross-validation: original record at "
                                   f"t={so.t} has no transformed record at "
                                   "the same time")
            st = kept.popleft()
            du = lp_norm(ScalarField(grid, st.u.values - so.u.values, check=False), 2)
            v_from_c = forward_transform(so.c, cfg.params)
            dv = lp_norm(VectorField(grid, v_from_c.values - st.v.values,
                                     check=False), 2)
            max_du = max(max_du, du)
            max_dv = max(max_dv, dv)

        traj_o = run(u0, c0, stepper, cfg.params, mode="original",
                     p0=cfg.recipe.p0, recorders=(compare,))
        _require_completed(traj_o)
        if kept:
            raise RuntimeError(f"cross-validation: {len(kept)} transformed "
                               "records have no original record")
        rows.append((n, stepper.dt, max_du, max_dv))
    _write_csv(out / "cross_validate.csv",
               "N,dt,max_u_discrepancy,max_v_discrepancy", rows)
    (out / "config_echo.cfg").write_text(format_config(cfg))
    return CrossValidateResult(rows=rows, out_dir=out)


@dataclass
class ThetaScanResult:
    rows: list
    out_dir: Path


def run_theta_scan(cfg: ExperimentConfig, out_dir=None) -> ThetaScanResult:
    """Amplitude ladder: measure theta0/M and classify each run's outcome.

    ``decayed`` means the sup-norm perturbation at the end is at most half
    its value at the first settled record (t >= 1); the energy bound check
    compares the running A1 against 1.5 * theta0.
    """
    if not cfg.amplitudes:
        raise ConfigError("scan.amplitudes", "amplitude ladder is required")
    if any(a1 >= a2 for a1, a2 in zip(cfg.amplitudes, cfg.amplitudes[1:])):
        raise ConfigError("scan.amplitudes", "ladder must be strictly increasing")
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def scan_one(amp):
        recipe = cfg.recipe.scaled(amp)
        try:
            u0, v0, summary = build_initial_data(recipe, cfg.grid)
        except ValueError as exc:
            return (amp, float("nan"), float("nan"), "invalid_data",
                    False, float("nan"), float("nan"), False, False, str(exc))
        traj = run(u0, v0, cfg.stepper, cfg.params, mode="transformed",
                   p0=cfg.recipe.p0)
        a1 = traj.records[-1].a1
        bound = 1.5 * summary.theta0_raw
        a1_ok = a1 <= bound if summary.theta0_raw > 0 else True
        settled = [r for r in traj.records if r.t >= 1.0]
        lemma34_ok = bool(settled) and all(r.u_linf <= 0.25 for r in settled)
        if traj.outcome is RunOutcome.COMPLETED and settled:
            decayed = traj.records[-1].u_linf <= 0.5 * settled[0].u_linf
        else:
            decayed = False
        if traj.outcome is RunOutcome.BLOWUP:
            label = "blowup"
        elif traj.outcome is RunOutcome.CHEMICAL_EXTINCTION:
            label = "chemical_extinction"
        else:
            label = "completed_decay" if decayed else "completed_no_decay"
        return (amp, summary.theta0, summary.M, label, decayed, a1, bound,
                a1_ok, lemma34_ok, "")

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            rows = list(pool.map(scan_one, cfg.amplitudes))
    else:
        rows = [scan_one(a) for a in cfg.amplitudes]

    _write_csv(out / "theta_scan.csv",
               "amplitude,theta0,M,outcome,decayed,a1,a1_bound,a1_ok,lemma34_ok",
               (row[:-1] for row in rows))   # all but the message
    (out / "config_echo.cfg").write_text(format_config(cfg))
    return ThetaScanResult(rows=rows, out_dir=out)
