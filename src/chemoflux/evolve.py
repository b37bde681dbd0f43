"""Time integration of the coupled density-drift and density-chemical systems.

``march`` is the only stepper: a generator that yields ``(state, record)``
at each record node and returns the `Trajectory` when it ends; ``run``
drains it and calls its hooks on each pair.  A yielded or hooked state's
arrays are never written afterwards.  The type of u0's companion picks the
mode: v0, a `VectorField`, the transformed one and c0, a `ScalarField`, the
original one.  Both modes share one transport kernel and one implicit
density update:

* transformed mode evolves (u, v) with implicit (backward-Euler or
  trapezoidal) diffusion and explicit dealiased transport chi*div(u v);
  v is advanced by the trapezoid of grad(u) at both time levels, so it
  stays a spectral gradient at every step and curl-freeness is structural;
* original mode evolves (u, c) by Strang splitting around the exact
  exponential chemical update, with the drift recomputed from ln c.

A run projects its working state onto the dealias band once at start;
products then never alias back into the retained band, which is what makes
the flux identities machine-precision checks.  Every field is real, so the
state is carried as half spectra (``np.fft.rfft2``); see `fields` for the
layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import diagnostics as diag
from .cole_hopf import C_FLOOR, ChemistryParams
from .fields import Grid, ParameterError, ScalarField, VectorField
from .initial_data import potential_of

_LOG_FLOOR = float(np.log(C_FLOOR))
_LOG_MAX = float(np.log(np.finfo(float).max))   # exp overflows above this


def _time_tol(t: float) -> float:
    """Tolerance within which a step end counts as reaching a requested time."""
    return 1e-12 * max(1.0, t)


class RunOutcome(Enum):
    COMPLETED = "completed"
    BLOWUP = "blowup"
    CHEMICAL_EXTINCTION = "chemical_extinction"


EXIT_CODES = {
    RunOutcome.COMPLETED: 0,
    RunOutcome.BLOWUP: 10,
    RunOutcome.CHEMICAL_EXTINCTION: 11,
}


@dataclass
class SimState:
    """A run's state at one time: (u, v) in transformed mode, (u, c) in original."""

    t: float
    u: ScalarField
    v: VectorField | None = None
    c: ScalarField | None = None


@dataclass
class StepperConfig:
    dt: float = 0.01
    t_end: float = 1.0
    dt_mode: str = "fixed"       # fixed | cfl (dt is the cap in cfl mode)
    cfl_number: float = 0.5
    scheme: str = "imex_cn"      # imex_be | imex_cn
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt", f"must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ParameterError("t_end", f"must be nonnegative, got {self.t_end}")
        if self.t_end > 0 and self.dt > self.t_end:
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if self.dt_mode not in ("fixed", "cfl"):
            raise ParameterError("dt_mode",
                                 f"must be fixed or cfl, got {self.dt_mode!r}")
        if not (0 < self.cfl_number <= 1):
            raise ParameterError("cfl_number",
                                 f"must be in (0, 1], got {self.cfl_number}")
        if self.scheme not in ("imex_be", "imex_cn"):
            raise ParameterError("scheme",
                                 f"must be imex_be or imex_cn, got {self.scheme!r}")
        if self.record_every < 1:
            raise ParameterError("record_every",
                                 f"must be a positive integer, got {self.record_every}")


@dataclass
class Trajectory:
    """Ordered diagnostics plus the structured terminal status of a run."""

    outcome: RunOutcome
    final_state: SimState | None
    snapshots: list            # (t, {"u": array, ...}) pairs
    message: str = ""
    blowup_integral: float = 0.0
    records: list = field(default_factory=list)


def _transport_hat(grid: Grid, u, vx, vy, chi: float):
    """chi * div(u v) in spectral space with the product dealiased."""
    pxh = np.fft.rfft2(u * vx)
    pyh = np.fft.rfft2(u * vy)
    pxh[grid._out_of_band] = 0.0
    pyh[grid._out_of_band] = 0.0
    return chi * (grid._ikx * pxh + grid._iky * pyh)


def _advance_density(grid, uh, dt, scheme, t_hat, predictor_transport):
    """IMEX update of u_hat: backward Euler, or trapezoid with a predictor.

    t_hat is the transport term at the current node; for CN,
    ``predictor_transport(uh_p)`` gives it at the predicted density.
    """
    k2 = grid._k_squared
    if scheme == "imex_be":
        return (uh + dt * t_hat) / (1.0 + dt * k2)
    den = 1.0 + 0.5 * dt * k2
    explicit = (1.0 - 0.5 * dt * k2) * uh
    uh_p = (explicit + dt * t_hat) / den
    t_hat_p = predictor_transport(uh_p)
    return (explicit + 0.5 * dt * (t_hat + t_hat_p)) / den


def _advance_transformed(grid, uh, vxh, vyh, dt, chi, scheme, t_hat):
    """One IMEX step; v moves by the trapezoid of grad(u) at both levels."""
    ikx, iky, shape = grid._ikx, grid._iky, grid.shape

    def predictor_transport(uh_p):
        vxh_p = vxh + 0.5 * dt * (ikx * uh + ikx * uh_p)
        vyh_p = vyh + 0.5 * dt * (iky * uh + iky * uh_p)
        return _transport_hat(grid, np.fft.irfft2(uh_p, s=shape),
                              np.fft.irfft2(vxh_p, s=shape),
                              np.fft.irfft2(vyh_p, s=shape), chi)

    uh1 = _advance_density(grid, uh, dt, scheme, t_hat, predictor_transport)
    vxh1 = vxh + 0.5 * dt * (ikx * uh + ikx * uh1)
    vyh1 = vyh + 0.5 * dt * (iky * uh + iky * uh1)
    return uh1, vxh1, vyh1


def _drift_from_log_chemical(grid, s_vals, mu):
    """v = -(1/mu) grad(s) for s = ln c, as physical components and spectra."""
    sh = np.fft.rfft2(s_vals)
    vxh = -(1.0 / mu) * grid._ikx * sh
    vyh = -(1.0 / mu) * grid._iky * sh
    return (np.fft.irfft2(vxh, s=grid.shape), np.fft.irfft2(vyh, s=grid.shape),
            vxh, vyh)


def _advance_original(grid, u, s, uh, dt, params, scheme):
    """Strang step: half chemical decay, full density step, half decay.

    The chemical is carried as s = ln c, so positivity is structural and
    the extinction check is an exact comparison in log space.
    """
    mu, chi = params.mu, params.chi
    s_half = s - (0.5 * dt * mu) * u
    vx, vy, _, _ = _drift_from_log_chemical(grid, s_half, mu)
    t_hat = _transport_hat(grid, u, vx, vy, chi)
    uh1 = _advance_density(
        grid, uh, dt, scheme, t_hat,
        lambda uh_p: _transport_hat(grid, np.fft.irfft2(uh_p, s=grid.shape),
                                    vx, vy, chi))
    u1 = np.fft.irfft2(uh1, s=grid.shape)
    s1 = s_half - (0.5 * dt * mu) * u1
    return u1, s1, uh1


def _cfl_dt(grid, uh, vx, vy, chi, cfg) -> float:
    """Advective step limit from max|v| and max|grad u|, capped at cfg.dt."""
    grad_u_inf = float(np.sqrt(
        np.fft.irfft2(grid._ikx * uh, s=grid.shape) ** 2
        + np.fft.irfft2(grid._iky * uh, s=grid.shape) ** 2).max())
    v_inf = float(np.sqrt(vx * vx + vy * vy).max())
    speed = max(1e-12, v_inf * chi + grad_u_inf * grid.spacing)
    return min(cfg.cfl_number * grid.spacing / speed, cfg.dt)


def march(u0: ScalarField, companion, cfg: StepperConfig, params: ChemistryParams,
          p0: float = 6.0, snapshot_times=()):
    """Advance matched initial data to t_end (or a halt), yielding each record.

    A generator: it yields ``(state, record)`` at every record node and
    returns (as ``StopIteration.value``) the `Trajectory` of the run
    without its records, which it has already yielded.  A yielded state's
    arrays are the march's own: it never writes to them afterwards, and it
    keeps no reference to the state, so a consumer that drops the pair
    before asking for the next one holds one state at a time.

    ``companion`` selects the mode: v0 (a `VectorField`) the transformed, c0
    (a `ScalarField`) the original.  The working state is projected onto the
    dealias band once at start.  Both modes carry s = ln c: original mode
    evolves it, and transformed mode starts it at -mu * potential(v0) and
    advances it by the trapezoid of -mu*u over each step, the same update as
    the Strang pair of original mode.  The records' ``c_linf`` is exp(max s).

    Every time node, t=0 included, takes one pass: the transport term, the
    six node norms (`diagnostics.node_norms`), the halt test, the running
    functionals, the record (every ``record_every`` steps and at t_end),
    and the snapshots due.  The halt test returns ``BLOWUP`` when a node
    norm is not finite or max s reaches ln of the largest double, where
    c_linf would overflow; a non-finite field makes its norm non-finite.

    Deterministic for a fixed configuration and single-threaded execution.
    Halts surface as the trajectory outcome, never as silent truncation:
    an original-mode c at or below ``C_FLOOR`` anywhere returns
    ``CHEMICAL_EXTINCTION`` with a message, at t=0 with no records, and a
    c0 that is not finite returns ``BLOWUP`` the same way.
    """
    grid = u0.grid
    oob, shape = grid._out_of_band, grid.shape
    mu, chi = params.mu, params.chi

    uh = np.fft.rfft2(u0.values)
    uh[oob] = 0.0
    u = np.fft.irfft2(uh, s=shape)

    transformed = isinstance(companion, VectorField)
    if transformed:
        vxh = np.fft.rfft2(companion.values[0])
        vyh = np.fft.rfft2(companion.values[1])
        vxh[oob] = 0.0
        vyh[oob] = 0.0
        vx, vy = np.fft.irfft2(vxh, s=shape), np.fft.irfft2(vyh, s=shape)
        s = np.zeros_like(u)   # ln c0 = -mu * potential(v0), no FFTs for v0 = 0
        if vxh.any() or vyh.any():
            s = -mu * potential_of(VectorField(grid, np.stack([vx, vy]),
                                               check=False)).values
    elif isinstance(companion, ScalarField):
        c_min, c_max = companion.values.min(), companion.values.max()
        if c_min <= C_FLOOR:
            return Trajectory(
                outcome=RunOutcome.CHEMICAL_EXTINCTION,
                final_state=None, snapshots=[],
                message=f"chemical under floor at t=0 (min c = {c_min})")
        if not np.isfinite(c_max):
            return Trajectory(
                outcome=RunOutcome.BLOWUP,
                final_state=None, snapshots=[],
                message=f"chemical not finite at t=0 (max c = {c_max})")
        sh = np.fft.rfft2(np.log(companion.values))
        sh[oob] = 0.0
        s = np.fft.irfft2(sh, s=shape)
        vx, vy, vxh, vyh = _drift_from_log_chemical(grid, s, mu)
    else:
        raise ValueError(f"companion {type(companion).__name__} selects no mode")

    recorder = diag.TrajectoryRecorder(chi=chi, p0=p0)
    snapshots: list = []
    pending_snaps = sorted(float(ts) for ts in snapshot_times)

    def current_state(t, u_field, v_field):
        if transformed:
            return SimState(t=t, u=u_field, v=v_field)
        return SimState(t=t, u=u_field, c=ScalarField(grid, np.exp(s), check=False))

    def emit(t, aux, s_max):
        # a function of its own, so that the stacked v and the state's c
        # live only in the yielded pair, never in the generator's frame
        u_field = ScalarField(grid, u, check=False)
        v_field = VectorField(grid, np.stack([vx, vy]), check=False)
        rec = recorder.make_record(t, u_field, v_field, float(np.exp(s_max)),
                                   aux, uh)
        return current_state(t, u_field, v_field), rec

    t = 0.0
    t_end = cfg.t_end
    outcome = RunOutcome.COMPLETED
    message = ""
    nstep = 0

    while True:
        # the node at t; u, vx, vy and s are rebound by every step, never
        # written in place, so yielded states may keep them
        t_hat = _transport_hat(grid, u, vx, vy, chi)
        aux = diag.node_norms(grid, uh, vxh, vyh, t_hat, vx, vy)
        s_max = float(s.max())
        if not (np.isfinite(aux).all() and s_max < _LOG_MAX):
            outcome = RunOutcome.BLOWUP
            message = (f"node norm not finite or sup c overflowing at t={t}; "
                       f"running drift-integral monitor = "
                       f"{recorder.blowup_integral}")
            break
        recorder.on_node(t, aux)
        done = t >= t_end - _time_tol(t_end)
        if nstep % cfg.record_every == 0 or done:
            yield emit(t, aux, s_max)
        while pending_snaps and t >= pending_snaps[0] - _time_tol(t):
            payload = {"u": u.copy()}
            if transformed:
                payload["v1"], payload["v2"] = vx.copy(), vy.copy()
            else:
                payload["c"] = np.exp(s)
            snapshots.append((t, payload))
            pending_snaps.pop(0)
        if done:
            break

        if cfg.dt_mode == "cfl":
            dt = _cfl_dt(grid, uh, vx, vy, chi, cfg)
        else:
            dt = cfg.dt
        dt = min(dt, t_end - t)
        if pending_snaps and t + dt > pending_snaps[0] + _time_tol(t):
            dt = pending_snaps[0] - t   # land a step on the requested time

        if transformed:
            u_prev = u
            uh, vxh, vyh = _advance_transformed(
                grid, uh, vxh, vyh, dt, chi, cfg.scheme, t_hat)
            u = np.fft.irfft2(uh, s=shape)
            vx = np.fft.irfft2(vxh, s=shape)
            vy = np.fft.irfft2(vyh, s=shape)
            s = s - (0.5 * dt * mu) * (u_prev + u)
        else:
            u, s, uh = _advance_original(grid, u, s, uh, dt, params, cfg.scheme)
            if s.min() <= _LOG_FLOOR:
                outcome = RunOutcome.CHEMICAL_EXTINCTION
                message = (f"chemical under floor at t={t + dt} "
                           f"(min ln c = {s.min()})")
                break
            vx, vy, vxh, vyh = _drift_from_log_chemical(grid, s, mu)
        t += dt
        nstep += 1

    final_state = None   # fields at a halt are unusable; the records stay
    if outcome is RunOutcome.COMPLETED:
        final_state = current_state(
            t, ScalarField(grid, u, check=False),
            VectorField(grid, np.stack([vx, vy]), check=False))
    return Trajectory(outcome=outcome, final_state=final_state,
                      snapshots=snapshots, message=message,
                      blowup_integral=recorder.blowup_integral)


def run(u0: ScalarField, companion, cfg: StepperConfig, params: ChemistryParams,
        p0: float = 6.0, recorders=(), snapshot_times=()) -> Trajectory:
    """Drain `march`, whose ``companion`` selects the system, into a
    `Trajectory` that holds its records.

    Each hook in ``recorders`` is called as ``hook(state, record)`` at every
    record, under the contract of the yielded states: a hook may keep the
    state's arrays but must not write to them.
    """
    marching = march(u0, companion, cfg, params, p0, snapshot_times)
    records = []
    while True:
        try:
            state, rec = next(marching)
        except StopIteration as stop:
            return replace(stop.value, records=records)
        records.append(rec)
        for hook in recorders:
            hook(state, rec)
        del state, rec   # else the state outlives the next step
