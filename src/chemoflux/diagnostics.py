"""Effective-flux identities, weighted energy functionals, and decay fits.

The combined diffusive-plus-chemotactic flux F = grad(u) + chi*u*v ties the
time derivative of the cell density to a divergence, and its scalar curl to
a transport term; both relations are algebraic at the discrete level when
the fields live in the dealias band, so their residuals act as exacting
structural self-checks on a run.

`TrajectoryRecorder.make_record` builds each diagnostics row spectrally, in
one pass of at most six half-spectrum transforms, with L^2 norms taken by
Parseval.  The tests check it against operator-at-a-time oracles on full
complex spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, VectorField, power_sum, spectral_power

# CSV schema, fixed order.  The diagnostics record carries two extra
# measured norms (ut_l2, grad_ut_l2) used by the energy recomputation;
# they are not part of the file schema.
CSV_COLUMNS = (
    "t", "sigma",
    "u_l2", "grad_u_l2", "u_linf",
    "v_l2", "v_l4", "v_lp0", "v_linf", "c_linf",
    "flux_l2", "flux_div_residual", "flux_curl_residual",
    "a1", "a2", "a3", "blowup_integral", "gn_ratio",
)

SCHEMA_VERSION = "chemoflux-diagnostics-v1"


def sigma_weight(t: float) -> float:
    """Initial-layer discount min(1, t)."""
    return min(1.0, t)


@dataclass
class DiagnosticsRecord:
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
    ut_l2: float = 0.0
    grad_ut_l2: float = 0.0


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


@dataclass
class NodeAux:
    """Per-time-node quantities feeding the running functionals."""

    u_sq: float        # ||u-1||_2^2
    v_sq: float        # ||v||_2^2
    grad_u_sq: float   # ||grad u||_2^2  (also ||v_t||_2^2, since v_t = grad u)
    ut_sq: float       # ||u_t||_2^2 with u_t the assembled right-hand side
    grad_ut_sq: float
    v4_4: float        # ||v||_4^4


class TrajectoryRecorder:
    """Accumulates the sigma-weighted functionals along a run.

    Integrals are trapezoid sums over every time node the stepper visits
    (not just recorded instants), which keeps them insensitive to the
    output cadence; suprema are tracked at every node as well.
    """

    def __init__(self, chi: float, p0: float):
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

    def make_record(self, t: float, u: ScalarField, v: VectorField,
                    c_linf: float, uh: np.ndarray | None = None
                    ) -> DiagnosticsRecord:
        """Row at time t, built from one spectral pass over (u, v).

        ``uh`` is the half spectrum ``np.fft.rfft2(u)`` when the caller
        already holds it.  The pass takes at most six transforms: u_hat, the
        dealiased products u*v_x and u*v_y, grad(u) in physical space, and
        the dealiased perp_grad(u).v.  The flux, u_t and both residuals are
        assembled from those spectra and measured by Parseval,
        ||f||_2^2 = cell_area/N^2 * sum |f_hat|^2 with the half-spectrum
        column weights; the L^inf, L^4 and L^p0 norms come from the physical
        samples.  The residuals are rebuilt here from u and v alone,
        independent of the stepper's transport term, so they check the
        identities rather than restate them.
        """
        grid = u.grid
        chi = self.chi
        ikx, iky, oob = grid._ikx, grid._iky, grid._out_of_band
        shape = grid.shape
        w = grid.cell_area / grid.resolution ** 2
        area = grid.cell_area
        uv, vx, vy = u.values, v.values[0], v.values[1]
        if uh is None:
            uh = np.fft.rfft2(uv)
        # Each spectrum is freed or updated in place as soon as it has
        # served, so the pass holds few of them at once (peak RSS at N=256).
        ux = np.fft.irfft2(ikx * uh, s=shape)
        uy = np.fft.irfft2(iky * uh, s=shape)
        grad_u_l2 = math.sqrt(area * (ux * ux + uy * uy).sum())
        qh = np.fft.rfft2(uy * vx - ux * vy)  # perp_grad(u).v, dealiased
        qh[oob] = 0.0
        del ux, uy
        txh = np.fft.rfft2(uv * vx)           # chi*u*v, dealiased
        tyh = np.fft.rfft2(uv * vy)
        txh[oob] = 0.0
        tyh[oob] = 0.0
        txh *= chi
        tyh *= chi
        fxh = ikx * uh                        # F = grad(u) + chi*u*v
        fxh += txh
        fyh = iky * uh
        fyh += tyh
        uth = ikx * txh                       # u_t = lap(u) + chi*div(u v)
        uth += iky * tyh
        uth -= grid._k_squared * uh
        del txh, tyh
        res = ikx * fxh                       # div(F) - u_t
        res += iky * fyh
        res -= uth
        div_sq = power_sum(res)
        np.multiply(iky, fxh, out=res)        # curl(F) - chi*perp_grad(u).v
        res -= ikx * fyh
        qh *= chi
        res -= qh
        curl_sq = power_sum(res)
        ut_power = spectral_power(uth)

        u_tilde = uv - 1.0
        u2 = u_tilde * u_tilde
        u_l2 = math.sqrt(area * u2.sum())
        if grad_u_l2 > 0 and u_l2 > 0:
            gn = math.sqrt(area * (u2 * u2).sum()) / (u_l2 * grad_u_l2)
        else:
            gn = 0.0  # degenerate sample (e.g. exact equilibrium)
        v2 = vx * vx + vy * vy
        return DiagnosticsRecord(
            t=t,
            sigma=sigma_weight(t),
            u_l2=u_l2,
            grad_u_l2=grad_u_l2,
            u_linf=float(np.abs(u_tilde).max()),
            v_l2=math.sqrt(area * v2.sum()),
            v_l4=float((area * (v2 * v2).sum()) ** 0.25),
            v_lp0=float((area * (v2 ** (0.5 * self.p0)).sum()) ** (1.0 / self.p0)),
            v_linf=math.sqrt(v2.max()),
            c_linf=c_linf,
            flux_l2=math.sqrt(w * (power_sum(fxh) + power_sum(fyh))),
            flux_div_residual=math.sqrt(w * div_sq),
            flux_curl_residual=math.sqrt(w * curl_sq),
            a1=self.a1,
            a2=self.a2,
            a3=self.a3,
            blowup_integral=self.blowup_integral,
            gn_ratio=gn,
            ut_l2=math.sqrt(w * grid.power_total(ut_power)),
            grad_ut_l2=math.sqrt(w * grid.gradient_power(ut_power)),
        )


def energy_functionals(records) -> tuple[float, float, float]:
    """Recompute (A1, A2, A3) from recorded rows alone.

    Trapezoid integrals and suprema are taken on the recording grid, so the
    result is cadence-limited; the running columns in the records themselves
    are accumulated on the stepping grid and are the sharper estimate.
    """
    rows = list(records)
    if not rows:
        raise ValueError("empty trajectory")
    sup_e = max(r.u_l2 ** 2 + r.v_l2 ** 2 for r in rows)
    sup_a2 = max(r.sigma * r.grad_u_l2 ** 2
                 + r.sigma ** 2 * (r.ut_l2 ** 2 + r.grad_u_l2 ** 2) for r in rows)
    sup_v4 = max(r.v_l4 ** 4 for r in rows)
    int_grad = int_a2 = int_v4 = 0.0
    for r0, r1 in zip(rows, rows[1:]):
        h = r1.t - r0.t
        int_grad += 0.5 * h * (r0.grad_u_l2 ** 2 + r1.grad_u_l2 ** 2)
        int_a2 += 0.5 * h * (
            (r0.sigma * r0.ut_l2 ** 2 + r0.sigma ** 2 * r0.grad_ut_l2 ** 2)
            + (r1.sigma * r1.ut_l2 ** 2 + r1.sigma ** 2 * r1.grad_ut_l2 ** 2))
        int_v4 += 0.5 * h * (r0.v_l4 ** 4 + r1.v_l4 ** 4)
    return sup_e + int_grad, sup_a2 + int_a2, sup_v4 + int_v4


def calibrate_energy_constant(records) -> float:
    """Smallest constant C making the discrete energy inequality
    dE <= -2*int |grad u|^2 + C*int ||u-1||^2 ||v||_4^4 hold on the rows."""
    rows = list(records)
    c_needed = 0.0
    for r0, r1 in zip(rows, rows[1:]):
        h = r1.t - r0.t
        de = (r1.u_l2 ** 2 + r1.v_l2 ** 2) - (r0.u_l2 ** 2 + r0.v_l2 ** 2)
        diss = h * (r0.grad_u_l2 ** 2 + r1.grad_u_l2 ** 2)  # 2 * trapezoid
        forcing = 0.5 * h * (r0.u_l2 ** 2 * r0.v_l4 ** 4
                             + r1.u_l2 ** 2 * r1.v_l4 ** 4)
        excess = de + diss
        if excess > 0 and forcing > 0:
            c_needed = max(c_needed, excess / forcing)
    return c_needed


def check_energy_inequality(records, constant: float, slack: float = 1e-12):
    """Return the times where the calibrated energy inequality fails."""
    rows = list(records)
    violations = []
    for r0, r1 in zip(rows, rows[1:]):
        h = r1.t - r0.t
        e0 = r0.u_l2 ** 2 + r0.v_l2 ** 2
        e1 = r1.u_l2 ** 2 + r1.v_l2 ** 2
        diss = h * (r0.grad_u_l2 ** 2 + r1.grad_u_l2 ** 2)
        forcing = 0.5 * h * (r0.u_l2 ** 2 * r0.v_l4 ** 4
                             + r1.u_l2 ** 2 * r1.v_l4 ** 4)
        if e1 - e0 > -diss + constant * forcing + slack * (1.0 + e0):
            violations.append(r1.t)
    return violations
