"""Time integration of the coupled density-drift and density-chemical systems.

``run`` is the only stepper.  Its two modes share one transport kernel and
one implicit density update:

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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import diagnostics as diag
from .cole_hopf import C_FLOOR, ChemistryParams
from .fields import (Grid, ParameterError, ScalarField, VectorField, lp_norm,
                     power_sum, spectral_power)
from .initial_data import potential_of

_LOG_FLOOR = float(np.log(C_FLOOR))


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
    """A run's state at one time; (u, v) or (u, c) depending on mode."""

    t: float
    u: ScalarField
    v: VectorField | None = None
    c: ScalarField | None = None
    mode: str = "transformed"

    def __post_init__(self):
        if self.mode == "transformed":
            if self.v is None:
                raise ValueError("transformed mode requires a drift field v")
        elif self.mode == "original":
            if self.c is None:
                raise ValueError("original mode requires a chemical field c")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.t < 0:
            raise ValueError("time must be nonnegative")


@dataclass
class StepperConfig:
    dt: float
    t_end: float
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

    records: list
    outcome: RunOutcome
    final_state: SimState | None
    snapshots: list            # (t, {"u": array, ...}) pairs
    message: str = ""
    blowup_integral: float = 0.0


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


def _node_aux(grid, uh, vxh, vyh, t_hat, vx, vy) -> diag.NodeAux:
    """Functional integrands at one node, via Parseval (no extra FFTs)."""
    n2 = grid.resolution ** 2
    w = grid.cell_area / n2
    abs_uh2 = spectral_power(uh)
    mean_u = uh[0, 0].real / n2
    abs_uh2[0, 0] = 0.0   # the mean mode's power would swamp ||u - 1||^2 near u = 1
    u_sq = w * grid.power_total(abs_uh2) + (mean_u - 1.0) ** 2 * grid.side_length ** 2
    v_sq = w * (power_sum(vxh) + power_sum(vyh))
    grad_u_sq = w * grid.gradient_power(abs_uh2)
    ut_hat = -grid._k_squared * uh + t_hat
    abs_ut2 = spectral_power(ut_hat)
    ut_sq = w * grid.power_total(abs_ut2)
    grad_ut_sq = w * grid.gradient_power(abs_ut2)
    v4_4 = grid.cell_area * ((vx * vx + vy * vy) ** 2).sum()
    return diag.NodeAux(u_sq=float(u_sq), v_sq=float(v_sq),
                        grad_u_sq=float(grad_u_sq), ut_sq=float(ut_sq),
                        grad_ut_sq=float(grad_ut_sq), v4_4=float(v4_4))


def _cfl_dt(grid, uh, vx, vy, chi, cfg) -> float:
    """Advective step limit from max|v| and max|grad u|, capped at cfg.dt."""
    grad_u_inf = float(np.sqrt(
        np.fft.irfft2(grid._ikx * uh, s=grid.shape) ** 2
        + np.fft.irfft2(grid._iky * uh, s=grid.shape) ** 2).max())
    v_inf = float(np.sqrt(vx * vx + vy * vy).max())
    speed = max(1e-12, v_inf * chi + grad_u_inf * grid.spacing)
    return min(cfg.cfl_number * grid.spacing / speed, cfg.dt)


def run(u0: ScalarField, companion, cfg: StepperConfig, params: ChemistryParams,
        mode: str = "transformed", p0: float = 6.0, recorders=(),
        snapshot_times=()) -> Trajectory:
    """Advance matched initial data to t_end (or a halt) and record diagnostics.

    ``companion`` is the drift field v0 in transformed mode or the chemical
    c0 in original mode.  The working state is projected onto the dealias
    band once at start.  In transformed mode the chemical sup-norm is
    tracked through the accumulated time integral of u (log-space exact),
    from the reference ln c0 = -mu * potential(v0).

    Each hook in ``recorders`` is called as ``hook(state, record)`` at every
    record.  The state's arrays are the run's own: the run never writes to
    them after handing them out, so a hook may keep them without copying,
    but must not write to them either.

    Deterministic for a fixed configuration and single-threaded execution.
    Halts surface as the trajectory outcome, never as silent truncation:
    an original-mode c0 at or below ``C_FLOOR`` anywhere returns
    ``CHEMICAL_EXTINCTION`` at t=0 with a message and no records.
    """
    grid = u0.grid
    oob, shape = grid._out_of_band, grid.shape
    mu, chi = params.mu, params.chi

    uh = np.fft.rfft2(u0.values)
    uh[oob] = 0.0
    u = np.fft.irfft2(uh, s=shape)

    s = None
    if mode == "transformed":
        if not isinstance(companion, VectorField):
            raise ValueError("transformed mode expects v0 as a VectorField")
        vxh = np.fft.rfft2(companion.values[0])
        vyh = np.fft.rfft2(companion.values[1])
        vxh[oob] = 0.0
        vyh[oob] = 0.0
        vx, vy = np.fft.irfft2(vxh, s=shape), np.fft.irfft2(vyh, s=shape)
        v_band = VectorField(grid, np.stack([vx, vy]), check=False)
        if lp_norm(v_band, np.inf) > 0:
            ln_c0 = -mu * potential_of(v_band).values
        else:
            ln_c0 = np.zeros_like(u)
        u_time_integral = np.zeros_like(u)
    elif mode == "original":
        if not isinstance(companion, ScalarField):
            raise ValueError("original mode expects c0 as a ScalarField")
        c_min = companion.values.min()
        if c_min <= C_FLOOR:
            return Trajectory(
                records=[], outcome=RunOutcome.CHEMICAL_EXTINCTION,
                final_state=None, snapshots=[],
                message=f"chemical under floor at t=0 (min c = {c_min})")
        sh = np.fft.rfft2(np.log(companion.values))
        sh[oob] = 0.0
        s = np.fft.irfft2(sh, s=shape)
        vx, vy, vxh, vyh = _drift_from_log_chemical(grid, s, mu)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    recorder = diag.TrajectoryRecorder(chi=chi, p0=p0)
    records: list = []
    snapshots: list = []
    pending_snaps = sorted(float(ts) for ts in snapshot_times)

    def current_state(t, u_field, v_field):
        if mode == "transformed":
            return SimState(t=t, u=u_field, v=v_field, mode=mode)
        return SimState(t=t, u=u_field,
                        c=ScalarField(grid, np.exp(s), check=False), mode=mode)

    def chem_sup(t):
        if mode == "transformed":
            return float(np.exp((ln_c0 - mu * u_time_integral).max()))
        return float(np.exp(s.max()))

    def emit(t):
        # u, vx, vy and s are rebound by every step, never written in place
        u_field = ScalarField(grid, u, check=False)
        v_field = VectorField(grid, np.stack([vx, vy]), check=False)
        rec = recorder.make_record(t, u_field, v_field, chem_sup(t), uh=uh)
        records.append(rec)
        if recorders:
            state = current_state(t, u_field, v_field)
            for hook in recorders:
                hook(state, rec)

    def take_due_snapshots(t):
        while pending_snaps and t >= pending_snaps[0] - _time_tol(t):
            payload = {"u": u.copy()}
            if mode == "transformed":
                payload["v1"], payload["v2"] = vx.copy(), vy.copy()
            else:
                payload["c"] = np.exp(s)
            snapshots.append((t, payload))
            pending_snaps.pop(0)

    t = 0.0
    t_end = cfg.t_end
    outcome = RunOutcome.COMPLETED
    message = ""
    nstep = 0

    t_hat = _transport_hat(grid, u, vx, vy, chi)
    recorder.on_node(t, _node_aux(grid, uh, vxh, vyh, t_hat, vx, vy))
    emit(t)
    take_due_snapshots(t)

    while t < t_end - _time_tol(t_end):
        if cfg.dt_mode == "cfl":
            dt = _cfl_dt(grid, uh, vx, vy, chi, cfg)
        else:
            dt = cfg.dt
        dt = min(dt, t_end - t)
        if pending_snaps and t + dt > pending_snaps[0] + _time_tol(t):
            dt = pending_snaps[0] - t   # land a step on the requested time

        u_prev = u
        if mode == "transformed":
            uh, vxh, vyh = _advance_transformed(
                grid, uh, vxh, vyh, dt, chi, cfg.scheme, t_hat)
            u = np.fft.irfft2(uh, s=shape)
            vx = np.fft.irfft2(vxh, s=shape)
            vy = np.fft.irfft2(vyh, s=shape)
            if not (np.isfinite(u).all() and np.isfinite(vx).all()
                    and np.isfinite(vy).all()):
                outcome = RunOutcome.BLOWUP
                message = (f"non-finite state at t={t + dt}; running "
                           f"drift-integral monitor = {recorder.blowup_integral}")
                break
            u_time_integral += 0.5 * dt * (u_prev + u)
        else:
            u, s, uh = _advance_original(grid, u, s, uh, dt, params, cfg.scheme)
            if not np.isfinite(u).all():
                outcome = RunOutcome.BLOWUP
                message = (f"non-finite state at t={t + dt}; running "
                           f"drift-integral monitor = {recorder.blowup_integral}")
                break
            if s.min() <= _LOG_FLOOR:
                outcome = RunOutcome.CHEMICAL_EXTINCTION
                message = (f"chemical under floor at t={t + dt} "
                           f"(min ln c = {s.min()})")
                break
            vx, vy, vxh, vyh = _drift_from_log_chemical(grid, s, mu)

        t += dt
        nstep += 1
        t_hat = _transport_hat(grid, u, vx, vy, chi)
        aux = _node_aux(grid, uh, vxh, vyh, t_hat, vx, vy)
        if not all(np.isfinite(x) for x in (aux.u_sq, aux.v_sq, aux.grad_u_sq,
                                            aux.ut_sq, aux.grad_ut_sq, aux.v4_4)):
            # norms overflowed double precision: the monitor has diverged
            outcome = RunOutcome.BLOWUP
            message = (f"diverging functionals at t={t}; last finite "
                       f"drift-integral monitor = {recorder.blowup_integral}")
            break
        recorder.on_node(t, aux)
        done = t >= t_end - _time_tol(t_end)
        if nstep % cfg.record_every == 0 or done:
            emit(t)
        take_due_snapshots(t)

    final_state = None   # fields at a halt are unusable; the records stay
    if outcome is RunOutcome.COMPLETED:
        final_state = current_state(
            t, ScalarField(grid, u, check=False),
            VectorField(grid, np.stack([vx, vy]), check=False))
    return Trajectory(records=records, outcome=outcome, final_state=final_state,
                      snapshots=snapshots, message=message,
                      blowup_integral=recorder.blowup_integral)
