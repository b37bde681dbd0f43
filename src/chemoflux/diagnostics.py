"""Effective-flux identities, weighted energy functionals, and decay fits.

The combined diffusive-plus-chemotactic flux F = grad(u) + chi*u*v ties the
time derivative of the cell density to a divergence, and its scalar curl to
a transport term; both relations are algebraic at the discrete level when
the fields live in the dealias band, so their residuals act as exacting
structural self-checks on a run.

`node_norms` is the one measurement of the six node norms (||u-1||_2,
||grad u||_2, ||u_t||_2, ||grad u_t||_2, ||v||_2, ||v||_4) that feed the
functionals, and of max |v|^2, which the CFL bound reads: the stepper
takes it once per time node, the u norms by Parseval and the v norms from
one |v|^2 pass over the samples, and `TrajectoryRecorder` accumulates the
functionals from it.  The stepper yields a `Node` at each record node: the
state there as the march's own sample arrays (u and s N x N, v and grad(u)
(2, N, N)), the scalars that are free there (c_linf and the functionals
so far) and what a row needs; a completed run's last node is its final
state.  A `DiagnosticsRecord` is one CSV row, built by
``node.row()`` only where a consumer reads one: `make_record` reads its
norm columns from the node's norms and the rest from one pass of three
half-spectrum transforms into the compact dealias band, given the node's
samples of grad(u) (two more transforms where the node has none).  The
tests check both against operator-at-a-time oracles on full complex
spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .fields import Grid, band_rfft2, spectral_power

SCHEMA_VERSION = "chemoflux-diagnostics-v1"


def sigma_weight(t: float) -> float:
    """Initial-layer discount min(1, t)."""
    return min(1.0, t)


def sup_deviation(u: np.ndarray) -> float:
    """max|u - 1| over the samples u, the u_linf column: from max u and
    min u, with no temporary array, and exact, since rounding is monotone."""
    return float(max(u.max() - 1.0, 1.0 - u.min()))


@dataclass
class DiagnosticsRecord:
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


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass
class DecayFit:
    """Log-linear fit of a positive time series on [t_lo, t_hi]."""

    t_lo: float
    t_hi: float
    quantity: str
    rate: float        # positive means decay
    prefactor: float
    residual: float    # rms residual of the fit in log space
    n_samples: int


def fit_decay(series, window, quantity: str = "") -> DecayFit:
    """Least-squares line on (t, ln value) over the window.

    Requires at least 10 samples, strictly positive values, and a window
    inside the settled regime t >= 1.
    """
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
    if (vs <= 0).any():
        raise ValueError("decay fit requires strictly positive values")
    ts = np.asarray(ts)
    logs = np.log(vs)
    slope, intercept = np.polyfit(ts, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * ts + intercept)) ** 2)))
    return DecayFit(t_lo=t_lo, t_hi=t_hi, quantity=quantity, rate=float(-slope),
                    prefactor=float(math.exp(intercept)), residual=resid,
                    n_samples=len(ts))


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
    """The node norms of a state, with no FFTs.

    ``t_hat`` is the transport term chi*div(u v) at the node, so that
    u_t = lap(u) + chi*div(u v); the u norms are Parseval sums over the
    compact spectra uh and t_hat, and ||v||_2^2, ||v||_4^4 and max |v|^2
    come from one pass of |v|^2 over the samples v, a (2, N, N) array.
    """
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
    """Accumulates the sigma-weighted functionals along a run.

    Integrals are trapezoid sums over every time node the stepper visits
    (not just recorded instants), which keeps them insensitive to the
    output cadence; suprema are tracked at every node as well.  ``grid`` is
    the run's, on which `make_record` measures each row.
    """

    def __init__(self, grid: Grid, chi: float, p0: float):
        self.grid = grid
        self.chi = chi
        self.p0 = p0
        self._prev = None          # (t, NodeAux)
        self.sup_e = 0.0           # sup ||u-1||^2 + ||v||^2
        self.sup_a2 = 0.0          # sup sigma*|grad u|^2 + sigma^2(|ut|^2 + |vt|^2)
        self.sup_v4 = 0.0          # sup ||v||_4^4
        self.int_grad_u = 0.0      # int |grad u|^2
        self.int_a2 = 0.0          # int sigma|ut|^2 + sigma^2|grad ut|^2
        self.int_v4 = 0.0          # int ||v||_4^4  (blow-up monitor)

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
            self.int_v4 += 0.5 * h * (a0.v4_4 + aux.v4_4)
        self._prev = (t, aux)

    @property
    def a1(self) -> float:
        return self.sup_e + self.int_grad_u

    @property
    def a2(self) -> float:
        return self.sup_a2 + self.int_a2

    @property
    def a3(self) -> float:
        return self.sup_v4 + self.int_v4

    @property
    def blowup_integral(self) -> float:
        return self.int_v4

    def make_record(self, node: Node) -> DiagnosticsRecord:
        """The row of a record node from its norms and one spectral pass over (u, v).

        ``node.aux`` holds the node's norms from `node_norms`, which give
        the u_l2, grad_u_l2, v_l2, v_l4 and v_linf columns, ``node.uh`` is
        the compact spectrum of u (`fields.band_rfft2`) and ``node.grad_u``
        the node's samples of grad(u), a (2, N, N) array, or None, when they
        are taken from ``uh`` here (two transforms).  The pass takes three
        transforms: the dealiased products u*v_x and u*v_y, then the
        dealiased perp_grad(u).v, once the div residual and ||F|| are done,
        so that it holds at most three compact spectra at once.  The flux
        and both residuals are assembled from those spectra and measured by
        Parseval, ||f||_2^2 = cell_area/N^2 * sum |f_hat|^2 with the
        half-spectrum column weights of `Grid.power_total`, as in
        `node_norms`, which a compact spectrum meets for its columns
        0..(N-1)//3, all but the first weighted twice.  The L^p0 norm and
        the Gagliardo-Nirenberg ratio come from the physical samples, in one
        buffer that holds (u - 1)^4 and then |v|^p0, each squared in place.  The
        residuals are rebuilt here from u and v alone, independent of the
        stepper's transport term, so they check the identities rather than
        restate them.
        """
        grid = self.grid
        uh, aux = node.uh, node.aux
        grad_u = node.grad_u if node.grad_u is not None else grid._gradient(uh)
        chi = self.chi
        ikx, iky = grid._ikx[:, :uh.shape[1]], grid._iky
        w = grid.cell_area / grid.resolution ** 2
        area = grid.cell_area
        uv, vx, vy = node.u, node.v[0], node.v[1]
        # F = grad(u) + chi*u*v is built in place on the spectra of chi*u*v
        # once each has served the residual (peak memory at N=256)
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
        sq = uv - 1.0   # one buffer, squared in place: (u - 1)^4, then |v|^p0
        sq *= sq
        sq *= sq
        gn = (math.sqrt(area * sq.sum()) / (u_l2 * grad_u_l2)
              if grad_u_l2 > 0 and u_l2 > 0 else 0.0)   # 0 at a degenerate sample
        np.multiply(vx, vx, out=sq)
        sq += vy * vy
        sq **= 0.5 * self.p0
        return DiagnosticsRecord(
            t=node.t,
            sigma=sigma_weight(node.t),
            u_l2=u_l2,
            grad_u_l2=grad_u_l2,
            u_linf=sup_deviation(uv),
            v_l2=math.sqrt(aux.v_sq),
            v_l4=aux.v4_4 ** 0.25,
            v_lp0=float((area * sq.sum()) ** (1.0 / self.p0)),
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


@dataclass(frozen=True)
class Node:
    """A record node of a run: its state, the scalars that are free there,
    and what its row needs.

    ``a1``, ``a2``, ``a3`` and ``blowup_integral`` are the recorder's running
    values frozen at the node.  ``u``, ``v`` (the drift, in either mode) and
    ``s`` (ln c) are the node's samples, N x N for u and s and (2, N, N) for
    v, ``uh`` the compact spectrum of u and ``grad_u`` the (2, N, N) samples
    of grad(u), or None where the stepper did not take them.  The arrays
    are the stepper's own, which it never writes afterwards.
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
    grad_u: np.ndarray | None
    s: np.ndarray
    recorder: TrajectoryRecorder

    def row(self) -> DiagnosticsRecord:
        """The node's diagnostics row (`TrajectoryRecorder.make_record`)."""
        return self.recorder.make_record(self)

