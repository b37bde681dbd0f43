"""Time integration of the coupled density-drift and density-chemical systems.

``march`` is the only stepper: a generator that yields a `diagnostics.Node`
at each record node and returns the last one, its node at t_end; ``run``
drains it, calls its hooks on each node and returns that node.  A run that
halts before t_end, by blow-up or by extinction of the chemical, raises
`RunHalted`, which carries its `RunOutcome` and why.  A node carries the
state (t, u, v and s = ln c) and the scalars that are free at it, and
builds its diagnostics row on ``node.row()``, so a consumer pays for a row
only where it reads one.  A yielded node's arrays are never written
afterwards.  A march holds one state at a time: it takes the initial datum
from a one-shot holder that it empties, hands each snapshot to the caller's
sink at its time and keeps no earlier state, so a run's memory does not
grow with its length, its snapshots or its records.  A step of either mode
holds the node's state plus only the arrays it is building, and drops each
array of the node once it has read it; at the widest point of a CN step,
its predictor's transport term, those are s at the half step, the explicit
term of the density update (in the array of the node's transport term), the
predicted samples of u and the term being built, beside w = v + dt/2
grad(u) in transformed mode or the spectrum of s and the predictor's drift
in original mode (see `march`).  The datum [u0, phi0] is the same for both
modes, which ``mode`` names: the march applies the Cole-Hopf substitution
at its start, s = ln c0 = -mu*phi0 and v0 = -(1/mu) grad(s) = grad(phi0),
so the two modes start from one node.  Both modes share one transport
kernel and one implicit density update:

* transformed mode evolves (u, v) with implicit (backward-Euler or
  trapezoidal) diffusion and explicit dealiased transport chi*div(u v);
  v is advanced by the trapezoid of grad(u) at both time levels, so it
  stays a spectral gradient at every step and curl-freeness is structural;
* original mode evolves (u, c) by Strang splitting around the exact
  exponential chemical update, with the drift recomputed from s = ln c,
  whose compact spectrum it carries alongside the samples.

Every field is a plain array of samples on the torus `fields.Grid`, which
``march`` and ``run`` take as the keyword ``grid``: the datum's u0 and
phi0 and a node's u and s are N x N, its v and grad(u) (2, N, N).  A run
projects its working state onto the dealias band once at start;
products then never alias back into the retained band, which is what makes
the flux identities machine-precision checks.  So every spectrum that a
march holds is a compact one, the N x ((N-1)//3 + 1) dealias band of a half
spectrum that `fields.band_rfft2` takes; see `fields` for the layout.
A transformed node is the spectrum of u plus the samples of u, grad(u), v
and s; v has no spectrum, since its update is linear in grad(u).  An
IMEX-CN step then takes 9 transforms and an IMEX-BE step 5, and the CFL
bound reads the node's grad(u) and max |v|^2, with no transform.  An
original-mode CN step takes 11 and a BE step 6, plus 2 for grad(u) where a
CFL bound reads it; a row takes 3, plus those 2 where the node has no
grad(u).  The start takes 2 for u, 4 for s and v unless phi0 is zero, and
in transformed mode 2 for grad(u).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import diagnostics as diag
from .cole_hopf import C_FLOOR, ChemistryParams, drift
from .fields import Grid, ParameterError, band_rfft2

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


class RunHalted(RuntimeError):
    """A run halted before t_end: ``outcome`` is its `RunOutcome` and
    ``message`` says why; a blow-up's message names the drift-integral
    monitor."""

    def __init__(self, outcome: RunOutcome, message: str):
        super().__init__(f"study run halted ({outcome.value}): {message}")
        self.outcome, self.message = outcome, message


def _transport_hat(grid: Grid, u, v, chi: float):
    """chi * div(u v) in spectral space with the product dealiased."""
    t_hat = band_rfft2(u * v[0])
    t_hat *= grid._ikx[:, :t_hat.shape[1]]
    t_hat += grid._iky * band_rfft2(u * v[1])
    t_hat *= chi
    return t_hat


def _self_transport_hat(grid: Grid, u, dt: float, chi: float):
    """chi * div P(u dt/2 grad u) in one transform.

    In the band P(u grad u) = grad P(u^2) / 2, so the term is
    chi dt/4 lap P(u^2).
    """
    ph = band_rfft2(u * u)
    ph *= (-0.25 * dt * chi) * grid._k_squared[:, :ph.shape[1]]
    return ph


def _predictor_transport_hat(grid: Grid, u_p, w, dt: float, chi: float):
    """chi * div P(u_p v_p) for v_p = w + dt/2 grad(u_p), without v_p:
    three transforms."""
    t_hat = _transport_hat(grid, u_p, w, chi)
    t_hat += _self_transport_hat(grid, u_p, dt, chi)
    return t_hat


def _advance_density(grid, uh, dt, scheme, t_hat, predictor_transport):
    """IMEX update of u_hat: backward Euler, or trapezoid with a predictor.

    t_hat is the transport term at the current node, an array of the
    caller's that the update overwrites: backward Euler builds u_hat(t+dt)
    in it, and the trapezoid its explicit term.  The trapezoid then
    transforms its predicted spectrum and drops it, so that
    ``predictor_transport(u_p)``, the transport term at the predicted
    samples u_p, runs beside no spectrum of the update but t_hat.
    """
    k2 = grid._k_squared[:, :uh.shape[1]]
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
    uh1 = predictor_transport(u_p)
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


def march(data: list, cfg: StepperConfig, params: ChemistryParams, p0: float = 6.0,
          mode: str = "transformed", snapshot_times=(), snapshot_sink=None, *,
          grid: Grid):
    """Advance an initial datum to t_end (or a halt), yielding its nodes.

    A generator: it yields a `diagnostics.Node` at every record node (every
    ``record_every`` steps and at t_end) and returns the node it yielded at
    t_end, or raises `RunHalted` at a halt.  The node carries the state, c_linf
    and the running functionals, and builds no row until ``node.row()``.  A
    yielded node's arrays are the march's own: it never writes to them
    afterwards, and it keeps no reference to a node across a step.

    ``data`` is a one-shot holder, the list ``[u0, phi0]`` of
    `initial_data.build_initial_data`, two arrays of ``grid``'s N x N shape
    (another shape is a ValueError).  The march empties it when it starts
    and drops the datum once it has projected it, because in CPython every
    frame of the call chain (the study, `run`, a tracer around it) keeps its
    arguments alive for the whole run; a caller that needs the datum again
    keeps its own reference and hands over a fresh holder.  ``mode`` is
    "transformed", which evolves (u, v), or "original", which evolves
    (u, c).  Both start alike, with the working state projected onto the
    dealias band: the compact spectrum sh of s = ln c0 = -mu*phi0, its
    samples s and v = `cole_hopf.drift` of sh, which is grad(phi0); a zero
    phi0 takes no transform.  Both modes carry s: original mode evolves it
    with its spectrum, and transformed mode drops sh and advances s by the
    trapezoid of -mu*u over each step, the same update as the Strang pair
    of original mode.  A node's ``c_linf`` is exp(max s), and its v is the
    drift in both modes.

    Every time node, t=0 included, takes one pass: the extinction test in
    original mode, the transport term, the node norms
    (`diagnostics.node_norms`), the blow-up test, the running functionals,
    the yield at a record node, and the snapshots due.  A step lands on each
    of ``snapshot_times``, where the march calls ``snapshot_sink(t,
    payload)`` once, before the next step: the payload maps "u", "v1" and
    "v2" (transformed) or "u" and "c" (original) to the node's samples,
    under the contract of the yielded nodes (c is built for the call).
    Snapshot times need a sink.  The extinction test halts with
    ``CHEMICAL_EXTINCTION`` when min s is at or below ln ``C_FLOOR``, where
    c, the original mode's state, underflows; transformed mode, whose state
    is v, has none.  The blow-up test halts with ``BLOWUP`` when a node norm
    is not finite or max s reaches ln of the largest double, where c_linf
    would overflow; a non-finite field makes its norm non-finite.  Both
    tests read s, which both modes start from phi0.

    So a march holds one state at a time.  At a node that is the spectrum
    and samples of u, the samples of v and s, the transport term, the
    samples of grad(u) in transformed mode or where a CFL bound reads them,
    and in original mode the spectrum of s.  A step adds only the arrays it
    builds and drops each of the node's once it is read: s goes to its half
    step first, as -half*u + s (the bits of s - half*u with one array
    fewer), which frees the node's u; a transformed step forms
    w = v + dt/2 grad(u), which frees v and grad(u), and an original step
    frees v once its spectrum of s has moved to the half step and its
    transport term has taken the self-transport term, both in place.  The
    density update folds its explicit term into the transport term's array
    and transforms its predicted spectrum before the predictor runs, so the
    widest point of a CN step, the predictor's transport term, holds the
    node's spectrum of u, the half-step s, the explicit term, the predicted
    samples u_p and the term being built, beside w in transformed mode, or
    the spectrum of s and the predictor's drift in original mode; the CN
    denominator is taken again after the predictor, not held across it.
    s and its spectrum take their second half in place.  A march keeps no
    datum, snapshot or earlier state; a consumer that drops each node
    before asking for the next holds no more.

    Deterministic for a fixed configuration and single-threaded execution.
    A halt raises `RunHalted`, never truncates silently, and follows the
    last yield and snapshot before it; a halt at t=0 comes before any.
    """
    if mode not in ("transformed", "original"):
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

    # each datum is dropped as soon as it is projected
    uh = band_rfft2(u0)
    del u0
    u = np.fft.irfft2(uh, s=shape)
    if phi0.any():   # the Cole-Hopf substitution
        sh = band_rfft2(-mu * phi0)
        del phi0
        s = np.fft.irfft2(sh, s=shape)
        v = drift(grid, sh, mu)
    else:   # no transform for a zero potential
        del phi0
        sh = None if transformed else np.zeros_like(uh)
        s, v = np.zeros_like(u), np.zeros((2,) + shape)
    if transformed:
        sh, grad_u = None, grid._gradient(uh)
    else:
        grad_u = None   # grad u only where it is read

    recorder = diag.TrajectoryRecorder(grid, chi=chi, p0=p0)
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
        if grad_u is None and cfg.dt_mode == "cfl" and not done:
            grad_u = grid._gradient(uh)   # original mode: the CFL bound reads it
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
            dt = _cfl_dt(grid, grad_u, aux.v2_max, chi, cfg)
        else:
            dt = cfg.dt
        dt = min(dt, t_end - t)
        if pending_snaps and t + dt > pending_snaps[0] + _time_tol(t):
            dt = pending_snaps[0] - t   # land a step on the requested time

        # s moves by the trapezoid of -mu*u, in original mode the Strang
        # pair of exact decays around the density step: its first half,
        # built as -half*u + s (the bits of s - half*u, one array fewer),
        # frees the node's u before the density step, and its second half
        # is taken in place
        half = 0.5 * dt * mu
        s_half = u * -half
        s_half += s
        s = s_half
        if transformed:
            # v moves by the trapezoid of grad(u) at both levels, in
            # physical space: w = v + dt/2 grad(u) becomes v1 in place
            w = grad_u * (0.5 * dt)
            w += v
            u, v, grad_u = None, w, None
            uh, t_hat = _advance_density(
                grid, uh, dt, cfg.scheme, t_hat,
                lambda u_p: _predictor_transport_hat(grid, u_p, w, dt, chi)), None
        else:
            # the density step's drift is v + dt/2 grad(u), v the node's,
            # so its transport at u is the node's t_hat plus the
            # self-transport term; the CN predictor builds its drift from
            # the spectrum of s at the half step.  sh and t_hat are the
            # march's own arrays, so both move in place
            sh -= half * uh
            t_hat += _self_transport_hat(grid, u, dt, chi)
            u = v = grad_u = None
            uh, t_hat = _advance_density(
                grid, uh, dt, cfg.scheme, t_hat,
                lambda u_p: _transport_hat(grid, u_p, drift(grid, sh, mu), chi)), None
        u = np.fft.irfft2(uh, s=shape)
        s -= half * u
        if transformed:
            grad_u = grid._gradient(uh)
            for i in (0, 1):   # no loop variable keeps a component view
                v[i] += (0.5 * dt) * grad_u[i]
        else:
            sh -= half * uh
            v = drift(grid, sh, mu)
        t += dt
        nstep += 1


def run(data: list, cfg: StepperConfig, params: ChemistryParams, p0: float = 6.0,
        mode: str = "transformed", recorders=(), snapshot_times=(),
        snapshot_sink=None, *, grid: Grid) -> diag.Node:
    """Drain `march` from the one-shot holder ``data`` = [u0, phi0] on
    ``grid`` in ``mode`` and return its node at t_end; a halt raises
    `RunHalted`.

    Each hook in ``recorders`` is called as ``hook(node)`` at every record
    node, under the contract of the yielded nodes: a hook may keep their
    arrays but must not write to them.  Nothing is collected: a hook
    builds the rows it reads with ``node.row()``, and ``snapshot_sink``
    receives the snapshots at ``snapshot_times`` (see `march`).
    """
    marching = march(data, cfg, params, p0, mode, snapshot_times, snapshot_sink,
                     grid=grid)
    while True:
        try:
            node = next(marching)
        except StopIteration as stop:
            return stop.value
        for hook in recorders:
            hook(node)
        del node   # else the node outlives the next step
