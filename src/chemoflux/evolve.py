"""Time integration of the system in its transformed and original forms.

`march` is the one stepper and `run` drains it.  One datum ``[u0, phi0]``
serves both modes: the march applies the Cole-Hopf substitution at its
start, s = ln c0 = -mu*phi0 and v0 = -(1/mu) grad(s) = grad(phi0).  Both
modes then take one step: s = ln c moves by the trapezoid of -mu*u and v by
the trapezoid of grad(u), which on the dealias band keeps v = -(1/mu)
grad(s), and u by an implicit density update whose transport term is
carried at the half-step drift w = v + dt/2 grad(u).  The modes differ only
in where the self-transport term chi dt/4 lap P(u^2) goes: original mode,
which evolves (u, c), adds it to the node's transport term; transformed
mode, which evolves (u, v), has `_advance_density` add it to the
predictor's.  Every spectrum is held in the compact dealias band of
`fields.band_rfft2`.

Linearised about (u_bar, 0), u_bar the mean of u0, every step amplifies
some mode once chi u_bar dt > 2, and original mode's half-step drift adds
the explicit diffusion chi u_bar dt/2 lap(u), so its Crank-Nicolson step
amplifies a mode of wavenumber |k| once dt |k| sqrt(chi u_bar) > 2.
`wave_limit` is the smaller of the two dts that bind, the second at the
corner of the band, and the only code that says which limit binds where; in
``cfl`` mode `march` caps every step at ``cfl_number`` times it, and every
study refuses a fixed dt above it.

Transform counts: tests/test_evolve.py::TestTransformBudget.
Memory of a step: tests/test_evolve.py::TestRun::test_peak_memory_of_a_single_run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import diagnostics as diag
from .cole_hopf import C_FLOOR, ChemistryParams, drift
from .fields import Grid, ParameterError, band_rfft2

_LOG_FLOOR = float(np.log(C_FLOOR))
_LOG_MAX = float(np.log(np.finfo(float).max))   # exp overflows above this
MODES = ("transformed", "original")


def _time_tol(t: float) -> float:
    """Tolerance within which a step end counts as reaching a requested time."""
    return 1e-12 * max(1.0, t)


class RunOutcome(Enum):
    COMPLETED = "completed"
    BLOWUP = "blowup"
    CHEMICAL_EXTINCTION = "chemical_extinction"


@dataclass
class StepperConfig:
    dt: float = 0.01
    t_end: float = 1.0
    dt_mode: str = "fixed"       # fixed | cfl (dt is the cap in cfl mode)
    cfl_number: float = 0.5
    scheme: str = "imex_cn"      # imex_be | imex_cn
    record_every: int = 1

    def __post_init__(self):
        if not self.dt > 0:   # NaN fails each range check
            raise ParameterError("dt", f"must be positive, got {self.dt}")
        if not math.isfinite(self.t_end):   # an infinite horizon never ends
            raise ParameterError("t_end", f"must be finite, got {self.t_end}")
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
        if not self.record_every >= 1:
            raise ParameterError("record_every",
                                 f"must be a positive integer, got {self.record_every}")


class RunHalted(RuntimeError):
    """A run halted before t_end: ``outcome`` is its `RunOutcome` and
    ``message`` says why."""

    def __init__(self, outcome: RunOutcome, message: str):
        super().__init__(f"study run halted ({outcome.value}): {message}")
        self.outcome, self.message = outcome, message


def _transport_hat(grid: Grid, u, v, chi: float):
    """chi * div(u v) in spectral space with the product dealiased."""
    t_hat = band_rfft2(u * v[0])
    t_hat *= grid._ikx
    t_hat += grid._iky * band_rfft2(u * v[1])
    t_hat *= chi
    return t_hat


def _self_transport_hat(grid: Grid, u, dt: float, chi: float):
    """chi * div P(u dt/2 grad u), computed as chi dt/4 lap P(u^2), since
    P(u grad u) = grad P(u^2) / 2."""
    ph = band_rfft2(u * u)
    ph *= (-0.25 * dt * chi) * grid._k_squared
    return ph


def _advance_density(grid, uh, dt, scheme, t_hat, w, chi, self_at_predictor):
    """u_hat at t+dt by backward Euler or by the predicted trapezoid; overwrites
    ``t_hat``, the node's transport term.  The predictor's transport term is
    chi * div P(u_p w) for the half-step drift ``w``, plus, if
    ``self_at_predictor`` (transformed mode), the self-transport term at u_p,
    so chi * div P(u_p v_p) for v_p = w + dt/2 grad(u_p) without forming v_p."""
    k2 = grid._k_squared
    if scheme == "imex_be":
        t_hat *= dt
        t_hat += uh
        t_hat *= 1.0 / (1.0 + dt * k2)
        return t_hat
    explicit = (1.0 - 0.5 * dt * k2) * uh
    uh_p = dt * t_hat
    uh_p += explicit
    uh_p *= 1.0 / (1.0 + 0.5 * dt * k2)   # cheaper than a complex quotient
    t_hat *= 0.5 * dt
    t_hat += explicit   # the explicit term of the update
    del explicit
    u_p = np.fft.irfft2(uh_p, s=grid.shape)
    del uh_p
    uh1 = _transport_hat(grid, u_p, w, chi)
    if self_at_predictor:
        uh1 += _self_transport_hat(grid, u_p, dt, chi)
    del u_p
    uh1 *= 0.5 * dt
    uh1 += t_hat
    uh1 *= 1.0 / (1.0 + 0.5 * dt * k2)   # not held across the predictor
    return uh1


def _cfl_dt(grid, grad_u, v2_max, chi, cfg) -> float:
    """Advective step limit from max|v|^2 and max|grad u|, capped at cfg.dt."""
    g2 = grad_u[0] * grad_u[0]   # two N x N arrays, not three
    g2 += grad_u[1] * grad_u[1]
    grad_u_inf = float(np.sqrt(g2.max()))
    v_inf = float(np.sqrt(v2_max))
    speed = max(1e-12, v_inf * chi + grad_u_inf * grid.spacing)
    return min(cfg.cfl_number * grid.spacing / speed, cfg.dt)


def wave_limit(grid: Grid, u0, chi: float, mode: str, scheme: str) -> float:
    """The largest dt at which the step of ``mode`` and ``scheme`` is linearly
    stable on ``grid`` about the mean u_bar of the samples ``u0``, with c = chi
    u_bar: 2 / c in both modes and schemes, and for original-mode
    Crank-Nicolson at most 2 / (|k|_max sqrt(c)), |k|_max = sqrt(2) ((N-1)//3)
    2 pi/L the band's corner; infinite where no limit binds, at c = 0.  The
    march conserves u_bar, so the limit of the datum holds for the whole run."""
    c = chi * float(u0.mean())
    if c <= 0:
        return math.inf
    if (mode, scheme) != ("original", "imex_cn"):
        return 2.0 / c
    k_max = math.sqrt(2.0) * float(grid._kx_deriv[0, -1])
    return min(2.0 / c, 2.0 / (k_max * math.sqrt(c)))


def march(data: list, cfg: StepperConfig, params: ChemistryParams,
          mode: str = "transformed", snapshot_times=(), snapshot_sink=None, *,
          grid: Grid):
    """Advance the datum to ``cfg.t_end`` on ``grid``, yielding its record nodes.

    A generator: it yields a `diagnostics.Node` every ``record_every`` steps
    and at t_end, and returns the node at t_end.  ``data`` is the one-shot
    holder ``[u0, phi0]`` of two arrays of ``grid``'s shape; the march empties
    it, since every frame of the call chain would otherwise keep the datum
    alive.  ``mode`` is one of `MODES`; a node's v is the drift, its grad_u
    grad(u) and its s ln c in both.  A caller relies on these invariants:

    * a yielded node's arrays are never written afterwards, and the march
      keeps no node, datum, snapshot or earlier state across a step;
    * in ``cfl`` mode a step is at most ``cfl_number`` times the datum's
      `wave_limit` for ``mode`` and the scheme; a fixed dt is not checked;
    * a step lands on each of ``snapshot_times``, where ``snapshot_sink(t,
      payload)`` is called once, before the next step, with the node's
      samples: "u", "v1" and "v2", or "u" and "c" in original mode;
    * a halt raises `RunHalted` after the last yield and snapshot before it:
      ``CHEMICAL_EXTINCTION`` in original mode when c falls to `C_FLOOR`,
      ``BLOWUP`` when a node norm is not finite or sup c would overflow;
    * single-threaded runs of one configuration are deterministic.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be transformed or original, got {mode!r}")
    if snapshot_times and snapshot_sink is None:
        raise ValueError("snapshot_times need a snapshot_sink")
    shape = grid.shape
    if any(x.shape != shape for x in data):   # no loop variable keeps a datum
        raise ValueError(f"u0 and phi0 must have the grid's shape {shape}, "
                         f"got {[x.shape for x in data]}")
    u0, phi0 = data
    data.clear()
    mu, chi = params.mu, params.chi
    transformed = mode == "transformed"

    uh = band_rfft2(u0)
    ceiling = cfg.cfl_number * wave_limit(grid, u0, chi, mode, cfg.scheme)   # a cfl cap
    del u0
    u = np.fft.irfft2(uh, s=shape)
    sh = band_rfft2(-mu * phi0)   # the Cole-Hopf substitution
    del phi0
    s = np.fft.irfft2(sh, s=shape)
    v = drift(grid, sh, mu)
    del sh   # from here v moves by the trapezoid of grad(u) in both modes
    grad_u = grid._gradient(uh)

    recorder = diag.TrajectoryRecorder(grid, chi=chi)
    pending_snaps = sorted(float(ts) for ts in snapshot_times)

    t = 0.0
    t_end = cfg.t_end
    nstep = 0

    while True:
        # the node at t; u, uh, v, grad_u and s are rebound by every step,
        # never written in place, so yielded nodes and snapshots may keep them
        if not transformed and s.min() <= _LOG_FLOOR:   # c is the state
            raise RunHalted(RunOutcome.CHEMICAL_EXTINCTION, f"chemical under "
                            f"floor at t={t} (min ln c = {s.min()})")
        t_hat = _transport_hat(grid, u, v, chi)
        aux = diag.node_norms(grid, uh, t_hat, v)
        s_max = float(s.max())
        if not (np.isfinite(aux).all() and s_max < _LOG_MAX):
            raise RunHalted(RunOutcome.BLOWUP, f"node norm not finite or sup c "
                            f"overflowing at t={t}; running drift-integral "
                            f"monitor = {recorder.blowup_integral}")
        recorder.on_node(t, aux)
        done = t >= t_end - _time_tol(t_end)
        if nstep % cfg.record_every == 0 or done:
            node = diag.Node(t=t, c_linf=float(np.exp(s_max)), a1=recorder.a1,
                             a2=recorder.a2, a3=recorder.a3,
                             blowup_integral=recorder.blowup_integral, aux=aux,
                             uh=uh, u=u, v=v, grad_u=grad_u, s=s,
                             recorder=recorder)
            yield node
        while pending_snaps and t >= pending_snaps[0] - _time_tol(t):
            if transformed:
                snapshot_sink(t, {"u": u, "v1": v[0], "v2": v[1]})
            else:
                snapshot_sink(t, {"u": u, "c": np.exp(s)})
            pending_snaps.pop(0)
        if done:
            return node
        node = None   # else its v and grad(u) outlive the step

        if cfg.dt_mode == "cfl":
            dt = min(_cfl_dt(grid, grad_u, aux.v2_max, chi, cfg), ceiling)
        else:
            dt = cfg.dt
        dt = min(dt, t_end - t)
        if pending_snaps and t + dt > pending_snaps[0] + _time_tol(t):
            dt = pending_snaps[0] - t   # land a step on the requested time

        # the modes differ only in where the self-transport term chi dt/4
        # lap P(u^2) goes: original mode adds it here, to the node's transport
        # term (the march's own array), so both its terms use the drift w
        # below; transformed mode has _advance_density add it to the
        # predictor's, of drift w + dt/2 grad(u_p)
        if not transformed:
            t_hat += _self_transport_hat(grid, u, dt, chi)
        # s moves by the trapezoid of -mu*u and v by that of grad(u), whose
        # half-step drift w = v + dt/2 grad(u) becomes v at t+dt; on the band
        # this keeps v = -(1/mu) grad(s).  -half*u + s frees the node's u with
        # one array fewer
        half = 0.5 * dt * mu
        s_half = u * -half
        s_half += s
        s = s_half
        w = grad_u * (0.5 * dt)
        w += v
        u, v, grad_u = None, w, None
        uh, t_hat = _advance_density(grid, uh, dt, cfg.scheme, t_hat, w, chi,
                                     transformed), None
        u = np.fft.irfft2(uh, s=shape)
        s -= half * u
        grad_u = grid._gradient(uh)
        for i in (0, 1):   # no loop variable keeps a component view
            v[i] += (0.5 * dt) * grad_u[i]
        t += dt
        nstep += 1


def run(data: list, cfg: StepperConfig, params: ChemistryParams,
        mode: str = "transformed", recorders=(), snapshot_times=(),
        snapshot_sink=None, *, grid: Grid) -> diag.Node:
    """Drain `march` and return its node at t_end; a halt raises `RunHalted`.
    Each of ``recorders`` is called as ``hook(node)`` at every record node; it
    may keep the node's arrays but must not write them."""
    marching = march(data, cfg, params, mode, snapshot_times, snapshot_sink, grid=grid)
    while True:
        try:
            node = next(marching)
        except StopIteration as stop:
            return stop.value
        for hook in recorders:
            hook(node)
        del node   # else the node outlives the next step
