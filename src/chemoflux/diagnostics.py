"""Effective-flux identities, sigma-weighted functionals and decay fits.

The effective flux F = grad(u) + chi*u*v satisfies u_t = div F, and while v
is a gradient curl F = chi perp_grad(u).v; every diagnostics row reports
both residuals.  `node_norms` measures the norms that feed the functionals,
which `TrajectoryRecorder` accumulates, and ``node.row(p0)`` builds a `Node`'s
`DiagnosticsRecord`, one row of the CSV whose columns are `CSV_COLUMNS`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fields import Grid, band_rfft2, lp_norm, spectral_power

SCHEMA_VERSION = "chemoflux-diagnostics-v3"
DECAY_WINDOW = (2.0, 20.0)   # the settled window (t_lo, t_hi) of a decay fit


def sigma_weight(t: float) -> float:
    """Initial-layer discount min(1, t)."""
    return min(1.0, t)


def smallness(grid: Grid, u0: np.ndarray, phi0: np.ndarray, p0: float) -> tuple:
    """The smallness parameters (theta0, M) of the datum (u0, phi0), N x N
    samples on ``grid``, with v0 = grad(phi0): theta0 = ||u0 - 1||_2^2 +
    ||v0||_2^2, the energy that the paper's condition bounds, and M =
    ||v0||_{p0}."""
    v0 = grid._gradient(np.fft.rfft2(phi0))
    return (lp_norm(grid, u0 - 1.0, 2) ** 2 + lp_norm(grid, v0, 2) ** 2,
            lp_norm(grid, v0, p0))


def sup_deviation(u: np.ndarray) -> float:
    """max|u - 1| over the samples u, the u_linf column: from max u and
    min u, with no temporary array, and exact, since rounding is monotone."""
    return float(max(u.max() - 1.0, 1.0 - u.min()))


class DiagnosticsRecord(NamedTuple):
    """One row of the diagnostics CSV: its fields are the columns, in order."""

    t: float
    sigma: float
    u_l2: float
    grad_u_l2: float
    u_linf: float
    v_l2: float
    v_l4: float
    v_lp0: float
    v_linf: float
    c_linf: float
    flux_l2: float
    flux_div_residual: float
    flux_curl_residual: float
    a1: float
    a2: float
    a3: float
    blowup_integral: float
    gn_ratio: float


CSV_COLUMNS = DiagnosticsRecord._fields


class DecayFit(NamedTuple):
    """Log-linear fit of a positive time series on [t_lo, t_hi], in the
    column order of the decay summary table."""

    t_lo: float
    t_hi: float
    rate: float        # positive means decay
    prefactor: float
    residual: float    # rms residual of the fit in log space
    n_samples: int


def fit_decay(series, window) -> DecayFit:
    """Least-squares line on (t, ln value) over the window, which lies in
    t >= 1; needs at least 10 samples, all finite and positive."""
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (t_hi > t_lo >= 1.0):
        raise ValueError(f"window must satisfy t_hi > t_lo >= 1, got {window}")
    ts, vs = [], []
    for t, val in series:
        if t_lo <= t <= t_hi:
            ts.append(float(t))
            vs.append(float(val))
    if len(ts) < 10:
        raise ValueError(f"need >= 10 samples in window, got {len(ts)}")
    vs = np.asarray(vs)
    if not (np.isfinite(vs) & (vs > 0)).all():
        raise ValueError("decay fit requires finite, strictly positive values")
    ts = np.asarray(ts)
    logs = np.log(vs)
    slope, intercept = np.polyfit(ts, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * ts + intercept)) ** 2)))
    return DecayFit(t_lo, t_hi, float(-slope), float(math.exp(intercept)), resid,
                    len(ts))


class NodeAux(NamedTuple):
    """The six squared node norms feeding the functionals, and max |v|^2;
    see `node_norms`."""

    u_sq: float        # ||u-1||_2^2
    v_sq: float        # ||v||_2^2
    grad_u_sq: float   # ||grad u||_2^2  (also ||v_t||_2^2, since v_t = grad u)
    ut_sq: float       # ||u_t||_2^2 with u_t the assembled right-hand side
    grad_ut_sq: float
    v4_4: float        # ||v||_4^4
    v2_max: float      # max |v|^2 over the samples


def node_norms(grid, uh, t_hat, v) -> NodeAux:
    """The node norms of a state from the compact spectra ``uh`` of u and
    ``t_hat`` of the transport term chi*div(u v), so that u_t = lap(u) +
    t_hat, and the (2, N, N) samples ``v``."""
    n2 = grid.resolution ** 2
    w = grid.cell_area / n2
    abs_uh2 = spectral_power(uh)
    mean_u = uh[0, 0].real / n2
    abs_uh2[0, 0] = 0.0   # the mean mode's power would swamp ||u - 1||^2 near u = 1
    u_sq = w * grid.power_total(abs_uh2) + (mean_u - 1.0) ** 2 * grid.side_length ** 2
    abs_ut2 = spectral_power(t_hat - grid._k_squared[:, :uh.shape[1]] * uh)
    v2 = v[0] * v[0]   # two N x N arrays, not three
    v2 += v[1] * v[1]
    return NodeAux(u_sq=float(u_sq), v_sq=float(grid.cell_area * v2.sum()),
                   grad_u_sq=w * grid.gradient_power(abs_uh2),
                   ut_sq=w * grid.power_total(abs_ut2),
                   grad_ut_sq=w * grid.gradient_power(abs_ut2),
                   v4_4=float(grid.cell_area * (v2 * v2).sum()),
                   v2_max=float(v2.max()))


class TrajectoryRecorder:
    """Accumulates the sigma-weighted functionals along a run, over every time
    node, so they do not depend on the record cadence; `make_record` measures
    each row on ``grid``."""

    def __init__(self, grid: Grid, chi: float):
        self.grid = grid
        self.chi = chi
        self._prev = None          # (t, NodeAux)
        self.sup_e = 0.0           # sup ||u-1||^2 + ||v||^2
        self.sup_a2 = 0.0          # sup sigma*|grad u|^2 + sigma^2(|ut|^2 + |vt|^2)
        self.sup_v4 = 0.0          # sup ||v||_4^4
        self.int_grad_u = 0.0      # int |grad u|^2
        self.int_a2 = 0.0          # int sigma|ut|^2 + sigma^2|grad ut|^2
        self.blowup_integral = 0.0  # int ||v||_4^4, the blow-up monitor

    def on_node(self, t: float, aux: NodeAux) -> None:
        s = sigma_weight(t)
        self.sup_e = max(self.sup_e, aux.u_sq + aux.v_sq)
        self.sup_a2 = max(self.sup_a2,
                          s * aux.grad_u_sq + s * s * (aux.ut_sq + aux.grad_u_sq))
        self.sup_v4 = max(self.sup_v4, aux.v4_4)
        if self._prev is not None:
            t0, a0 = self._prev
            s0 = sigma_weight(t0)
            h = t - t0
            self.int_grad_u += 0.5 * h * (a0.grad_u_sq + aux.grad_u_sq)
            self.int_a2 += 0.5 * h * (
                (s0 * a0.ut_sq + s0 * s0 * a0.grad_ut_sq)
                + (s * aux.ut_sq + s * s * aux.grad_ut_sq))
            self.blowup_integral += 0.5 * h * (a0.v4_4 + aux.v4_4)
        self._prev = (t, aux)

    @property
    def a1(self) -> float:
        return self.sup_e + self.int_grad_u

    @property
    def a2(self) -> float:
        return self.sup_a2 + self.int_a2

    @property
    def a3(self) -> float:
        return self.sup_v4 + self.blowup_integral

    def make_record(self, node: Node, p0: float) -> DiagnosticsRecord:
        """The row of a record node: its norm columns from ``node.aux``, v_lp0
        in L^p0, and its flux and residuals rebuilt from the node's u, v and
        grad(u), independent of the stepper's transport term."""
        grid = self.grid
        uh, aux, grad_u = node.uh, node.aux, node.grad_u
        chi = self.chi
        ikx, iky = grid._ikx[:, :uh.shape[1]], grid._iky
        w = grid.cell_area / grid.resolution ** 2
        area = grid.cell_area
        uv, vx, vy = node.u, node.v[0], node.v[1]
        # F = grad(u) + chi*u*v is built in place on the spectra of chi*u*v
        # once each has served the residual, to keep peak memory down
        fxh = band_rfft2(uv * vx)             # chi*u*v, dealiased
        fxh *= chi
        res = ikx * fxh                       # u_t = lap(u) + chi*div(u v)
        fxh += ikx * uh
        fyh = band_rfft2(uv * vy)
        fyh *= chi
        res += iky * fyh
        fyh += iky * uh
        res -= grid._k_squared[:, :uh.shape[1]] * uh
        res -= ikx * fxh                      # u_t - div(F)
        res -= iky * fyh
        div_sq = grid.power_total(spectral_power(res))
        flux_sq = (grid.power_total(spectral_power(fxh))
                   + grid.power_total(spectral_power(fyh)))
        np.multiply(iky, fxh, out=res)        # curl(F) - chi*perp_grad(u).v
        res -= ikx * fyh
        del fxh, fyh
        qh = band_rfft2(grad_u[1] * vx - grad_u[0] * vy)   # perp_grad(u).v
        qh *= chi
        res -= qh
        curl_sq = grid.power_total(spectral_power(res))

        u_l2, grad_u_l2 = math.sqrt(aux.u_sq), math.sqrt(aux.grad_u_sq)
        sq = uv - 1.0   # squared in place: (u - 1)^4
        sq *= sq
        sq *= sq
        gn = (math.sqrt(area * sq.sum()) / (u_l2 * grad_u_l2)
              if grad_u_l2 > 0 and u_l2 > 0 else 0.0)   # 0 at a degenerate sample
        del sq   # before lp_norm builds |v|^p0 in a buffer of its own
        return DiagnosticsRecord(
            t=node.t,
            sigma=sigma_weight(node.t),
            u_l2=u_l2,
            grad_u_l2=grad_u_l2,
            u_linf=sup_deviation(uv),
            v_l2=math.sqrt(aux.v_sq),
            v_l4=aux.v4_4 ** 0.25,
            v_lp0=lp_norm(grid, node.v, p0),
            v_linf=math.sqrt(aux.v2_max),
            c_linf=node.c_linf,
            flux_l2=math.sqrt(w * flux_sq),
            flux_div_residual=math.sqrt(w * div_sq),
            flux_curl_residual=math.sqrt(w * curl_sq),
            a1=node.a1,
            a2=node.a2,
            a3=node.a3,
            blowup_integral=node.blowup_integral,
            gn_ratio=gn,
        )


class Node(NamedTuple):
    """A record node: its state, the scalars free there, and what its row needs.

    ``u`` and ``s`` = ln c are N x N samples, ``v`` (the drift) and ``grad_u``
    (2, N, N) samples, and ``uh`` the compact spectrum of u; a NamedTuple, so
    no field is rebound, and the stepper never writes the arrays afterwards.
    """

    t: float
    c_linf: float
    a1: float
    a2: float
    a3: float
    blowup_integral: float
    aux: NodeAux
    uh: np.ndarray
    u: np.ndarray
    v: np.ndarray
    grad_u: np.ndarray
    s: np.ndarray
    recorder: TrajectoryRecorder

    def row(self, p0: float) -> DiagnosticsRecord:
        """The node's diagnostics row, v measured in L^p0
        (`TrajectoryRecorder.make_record`)."""
        return self.recorder.make_record(self, p0)

