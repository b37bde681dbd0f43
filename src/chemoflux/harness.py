"""Experiment orchestration: config files, canonical studies, persistence.

Configs are flat ``key = value`` text with dotted section names
(``grid.N = 256``); mollifier widths and sweep deltas accept the ``Xh``
suffix meaning X grid cells.  Every study writes CSV artifacts into its
output directory plus an echo copy of the parsed configuration, and runs
are byte-deterministic for a fixed config in single-threaded execution.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cole_hopf import C_FLOOR, ChemistryParams, forward_transform
from .diagnostics import CSV_COLUMNS, SCHEMA_VERSION, DecayFit, fit_decay
from .evolve import (EXIT_CODES, RunOutcome, StepperConfig, Trajectory, run)
from .fields import Grid, ScalarField, VectorField, lp_norm
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


def _parse_cells(text: str, spacing: float, field: str) -> float:
    """A width given either in physical units or as ``Xh`` grid cells."""
    text = text.strip()
    try:
        if text.endswith("h"):
            return float(text[:-1]) * spacing
        return float(text)
    except ValueError:
        raise ConfigError(field, f"cannot parse width {text!r}") from None


def _parse_float_list(text: str, field: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError(field, f"cannot parse float list {text!r}") from None


def _parse_tuple_list(text: str, field: str, arity: int) -> tuple:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        items = [x for x in part.split(",") if x.strip() != ""]
        if len(items) != arity:
            raise ConfigError(field, f"expected {arity} numbers per entry, got {part!r}")
        try:
            out.append(tuple(float(x) for x in items))
        except ValueError:
            raise ConfigError(field, f"cannot parse entry {part!r}") from None
    return tuple(out)


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

    known = {
        "study", "out_dir", "mode", "threads", "snapshot_times",
        "grid.L", "grid.N",
        "params.chi", "params.mu", "params.xi",
        "recipe.kind", "recipe.amplitude", "recipe.p0", "recipe.delta",
        "recipe.seed", "recipe.disks", "recipe.random_disks", "recipe.stripes",
        "recipe.bump_center", "recipe.bump_sharpness", "recipe.modes",
        "stepper.scheme", "stepper.dt", "stepper.dt_mode", "stepper.cfl_number",
        "stepper.t_end", "stepper.record_every",
        "sweep.deltas", "refine.n_list", "refine.dt_list", "xval.n_list",
        "scan.amplitudes",
    }
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown key")

    def get(key, default=None, cast=str):
        if key not in raw:
            if default is None:
                raise ConfigError(key, "required key missing")
            return default
        try:
            return cast(raw[key])
        except (ValueError, TypeError):
            raise ConfigError(key, f"cannot parse {raw[key]!r}") from None

    study = get("study", "single_run")
    if study not in STUDIES:
        raise ConfigError("study", f"must be one of {STUDIES}, got {study!r}")

    try:
        grid = Grid(side_length=get("grid.L", 16 * math.pi, float),
                    resolution=get("grid.N", 256, int))
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from None

    try:
        params = ChemistryParams(chi=get("params.chi", 1.0, float),
                                 mu=get("params.mu", 1.0, float),
                                 xi=get("params.xi", 1.0, float))
    except ValueError as exc:
        raise ConfigError("params", str(exc)) from None

    h = grid.spacing
    bump_center = _parse_float_list(raw.get("recipe.bump_center", "0.5,0.5"),
                                    "recipe.bump_center")
    if len(bump_center) != 2:
        raise ConfigError("recipe.bump_center", "expected two fractions cx,cy")
    try:
        recipe = InitialDataRecipe(
            kind=get("recipe.kind", "piecewise_constant_disks"),
            amplitude=get("recipe.amplitude", 0.0, float),
            p0=get("recipe.p0", 6.0, float),
            delta=_parse_cells(raw.get("recipe.delta", "0"), h, "recipe.delta"),
            seed=get("recipe.seed", 0, int),
            disks=_parse_tuple_list(raw.get("recipe.disks", ""), "recipe.disks", 4),
            random_disks=get("recipe.random_disks", 0, int),
            stripes=_parse_tuple_list(raw.get("recipe.stripes", ""), "recipe.stripes", 3),
            bump_center=bump_center,
            bump_sharpness=get("recipe.bump_sharpness", 16.0, float),
            potential_modes=_parse_tuple_list(raw.get("recipe.modes", ""),
                                              "recipe.modes", 4),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("recipe", str(exc)) from None

    try:
        stepper = StepperConfig(
            dt=get("stepper.dt", 0.01, float),
            t_end=get("stepper.t_end", 1.0, float),
            dt_mode=get("stepper.dt_mode", "fixed"),
            cfl_number=get("stepper.cfl_number", 0.5, float),
            scheme=get("stepper.scheme", "imex_cn"),
            record_every=get("stepper.record_every", 1, int),
        )
    except ValueError as exc:
        raise ConfigError("stepper", str(exc)) from None

    mode = get("mode", "transformed")
    if mode not in ("transformed", "original"):
        raise ConfigError("mode", f"must be transformed or original, got {mode!r}")

    deltas = tuple(_parse_cells(x, h, "sweep.deltas")
                   for x in raw.get("sweep.deltas", "").split(",") if x.strip())

    return ExperimentConfig(
        study=study,
        grid=grid,
        params=params,
        recipe=recipe,
        stepper=stepper,
        mode=mode,
        out_dir=get("out_dir", "out"),
        snapshot_times=_parse_float_list(raw.get("snapshot_times", ""), "snapshot_times"),
        threads=get("threads", 1, int),
        deltas=deltas,
        n_list=tuple(int(x) for x in _parse_float_list(raw.get("refine.n_list",
                     raw.get("xval.n_list", "")), "n_list")),
        dt_list=_parse_float_list(raw.get("refine.dt_list", ""), "refine.dt_list"),
        amplitudes=_parse_float_list(raw.get("scan.amplitudes", ""), "scan.amplitudes"),
    )


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("path", f"cannot read {path}: {exc.strerror}") from None
    return parse_config(text)


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical echo of a parsed config (suitable for re-parsing)."""
    lines = [
        f"study = {cfg.study}",
        f"out_dir = {cfg.out_dir}",
        f"mode = {cfg.mode}",
        f"threads = {cfg.threads}",
        f"grid.L = {cfg.grid.side_length!r}",
        f"grid.N = {cfg.grid.resolution}",
        f"params.chi = {cfg.params.chi!r}",
        f"params.mu = {cfg.params.mu!r}",
        f"params.xi = {cfg.params.xi!r}",
        f"recipe.kind = {cfg.recipe.kind}",
        f"recipe.amplitude = {cfg.recipe.amplitude!r}",
        f"recipe.p0 = {cfg.recipe.p0!r}",
        f"recipe.delta = {cfg.recipe.delta!r}",
        f"recipe.seed = {cfg.recipe.seed}",
        f"recipe.random_disks = {cfg.recipe.random_disks}",
        f"recipe.bump_center = {','.join(repr(x) for x in cfg.recipe.bump_center)}",
        f"recipe.bump_sharpness = {cfg.recipe.bump_sharpness!r}",
        f"stepper.scheme = {cfg.stepper.scheme}",
        f"stepper.dt = {cfg.stepper.dt!r}",
        f"stepper.dt_mode = {cfg.stepper.dt_mode}",
        f"stepper.cfl_number = {cfg.stepper.cfl_number!r}",
        f"stepper.t_end = {cfg.stepper.t_end!r}",
        f"stepper.record_every = {cfg.stepper.record_every}",
    ]
    if cfg.recipe.disks:
        lines.append("recipe.disks = " + "; ".join(
            ",".join(repr(x) for x in d) for d in cfg.recipe.disks))
    if cfg.recipe.stripes:
        lines.append("recipe.stripes = " + "; ".join(
            ",".join(repr(x) for x in s) for s in cfg.recipe.stripes))
    if cfg.recipe.potential_modes:
        lines.append("recipe.modes = " + "; ".join(
            ",".join(repr(x) for x in m) for m in cfg.recipe.potential_modes))
    if cfg.snapshot_times:
        lines.append("snapshot_times = " + ",".join(repr(t) for t in cfg.snapshot_times))
    if cfg.deltas:
        lines.append("sweep.deltas = " + ",".join(repr(d) for d in cfg.deltas))
    if cfg.n_list:
        lines.append("refine.n_list = " + ",".join(str(n) for n in cfg.n_list))
    if cfg.dt_list:
        lines.append("refine.dt_list = " + ",".join(repr(d) for d in cfg.dt_list))
    if cfg.amplitudes:
        lines.append("scan.amplitudes = " + ",".join(repr(a) for a in cfg.amplitudes))
    return "\n".join(lines) + "\n"


def flagship_config(n: int = 256, t_end: float = 40.0, dt: float = 0.01,
                    record_every: int = 5, out_dir: str = "out/flagship") -> ExperimentConfig:
    """Default small-perturbation jump-data configuration.

    Two opposite-signed disks of amplitude 0.05 with combined area 4, so the
    squared perturbation size is about 1e-2; mollified at two grid cells.
    """
    grid = Grid(side_length=16 * math.pi, resolution=n)
    radius = math.sqrt(2.0 / math.pi)  # each disk has area 2
    recipe = InitialDataRecipe(
        kind="piecewise_constant_disks",
        amplitude=0.05,
        p0=6.0,
        delta=2 * grid.spacing,
        disks=((0.40, 0.5, radius, 1.0), (0.60, 0.5, radius, -1.0)),
    )
    stepper = StepperConfig(dt=dt, t_end=t_end, dt_mode="cfl", cfl_number=0.5,
                            scheme="imex_cn", record_every=record_every)
    return ExperimentConfig(study="single_run", grid=grid,
                            params=ChemistryParams(), recipe=recipe,
                            stepper=stepper, out_dir=out_dir)


# ---------------------------------------------------------------------------
# artifact writers


def write_diagnostics_csv(path, records) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def write_decay_summary_csv(path, fits) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n")
        fh.write("quantity,t_lo,t_hi,rate,prefactor,residual,n_samples,reference_rate\n")
        for fit, ref in fits:
            ref_txt = format(ref, ".17g") if ref is not None else ""
            fh.write(f"{fit.quantity},{fit.t_lo:.17g},{fit.t_hi:.17g},"
                     f"{fit.rate:.17g},{fit.prefactor:.17g},{fit.residual:.17g},"
                     f"{fit.n_samples},{ref_txt}\n")


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
    write_decay_summary_csv(out / "decay_summary.csv", fits)
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
    with open(out / "delta_sweep.csv", "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n")
        fh.write("delta_coarse,delta_fine,du_l2,dv_l2\n")
        for d1, d2, du, dv in rows:
            fh.write(f"{d1:.17g},{d2:.17g},{du:.17g},{dv:.17g}\n")
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

    with open(out / "refinement.csv", "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n")
        fh.write("kind,param,error,order\n")
        for dt, err, order in temporal:
            fh.write(f"temporal,{dt:.17g},{err:.17g},{order:.17g}\n")
        for n, err, order in spatial:
            fh.write(f"spatial,{n},{err:.17g},{order:.17g}\n")
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
    with open(out / "cross_validate.csv", "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n")
        fh.write("N,dt,max_u_discrepancy,max_v_discrepancy\n")
        for n, dt, du, dv in rows:
            fh.write(f"{n},{dt:.17g},{du:.17g},{dv:.17g}\n")
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

    with open(out / "theta_scan.csv", "w", newline="\n") as fh:
        fh.write(f"# {SCHEMA_VERSION}\n")
        fh.write("amplitude,theta0,M,outcome,decayed,a1,a1_bound,a1_ok,lemma34_ok\n")
        for amp, th, m, label, dec, a1, bound, ok1, ok34, _ in rows:
            fh.write(f"{amp:.17g},{th:.17g},{m:.17g},{label},{int(dec)},"
                     f"{a1:.17g},{bound:.17g},{int(ok1)},{int(ok34)}\n")
    (out / "config_echo.cfg").write_text(format_config(cfg))
    return ThetaScanResult(rows=rows, out_dir=out)
