"""Reference operators on full complex spectra, one operator at a time.

The program computes on half spectra (``np.fft.rfft2``) in a single pass;
these operators compute the same quantities with ``np.fft.fft2`` over the
whole N x N spectrum, from their own wavenumber tables built out of
`wavenumbers`.  Fields are plain arrays, N x N for a scalar and
(2, N, N) for a vector, and each operator takes the `Grid` first.  They
share no spectral code with ``chemoflux``, and `lp_norm` is their own, so
the tests use them as an independent check of it.

The energy functionals and the energy inequality are recomputed here from
a run's diagnostics rows, with ||u_t||_2 and ||grad u_t||_2 measured on
each recorded state through `assemble_rhs_ut`, independently of the
stepper's node norms.  `amplification` is one step of the stepper,
linearised about the equilibrium, on a single mode.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def lp_norm(grid, x, p) -> float:
    """L^p norm of the samples x by uniform Riemann sum, for p >= 1 or inf:
    an N x N scalar through |x| and a (2, N, N) vector through its pointwise
    magnitude, taken by ``np.hypot``."""
    vals = np.hypot(x[0], x[1]) if x.ndim == 3 else np.abs(x)
    if p == np.inf:
        return float(vals.max())
    return float(((vals ** p).sum() * grid.cell_area) ** (1.0 / p))


def wavenumbers(grid):
    """Per-axis table 2*pi*m/L in FFT index order (length N)."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.resolution, d=grid.spacing)


@lru_cache(maxsize=None)
def _tables(grid):
    """(ikx, iky, k_squared, out_of_band) in full FFT index order."""
    n = grid.resolution
    k = wavenumbers(grid)
    k_deriv = k.copy()
    k_deriv[n // 2] = 0.0   # Nyquist has no sign partner
    # rounded, since fftfreq(n) * n is not always an exact integer
    # (3.0000000000000004 at n=10)
    keep = np.abs(np.round(np.fft.fftfreq(n) * n)) <= (n - 1) // 3
    return (1j * k_deriv[None, :], 1j * k_deriv[:, None],
            k[None, :] ** 2 + k[:, None] ** 2, ~(keep[None, :] & keep[:, None]))


def _real(ah):
    return np.fft.ifft2(ah).real


def _require_grid_shapes(grid, *fields):
    """Each field is N x N or (2, N, N) on ``grid``."""
    for f in fields:
        if f.shape[-2:] != grid.shape:
            raise ValueError(f"field of shape {f.shape} is not on the grid "
                             f"{grid.shape}")


def gradient(grid, f):
    ikx, iky, _, _ = _tables(grid)
    fh = np.fft.fft2(f)
    return np.stack([_real(ikx * fh), _real(iky * fh)])


def divergence(grid, w):
    ikx, iky, _, _ = _tables(grid)
    return _real(ikx * np.fft.fft2(w[0]) + iky * np.fft.fft2(w[1]))


def curl2d(grid, w):
    """Scalar curl d2(w1) - d1(w2)."""
    ikx, iky, _, _ = _tables(grid)
    return _real(iky * np.fft.fft2(w[0]) - ikx * np.fft.fft2(w[1]))


def perp_gradient(grid, f):
    """Rotated gradient (d2 f, -d1 f)."""
    ikx, iky, _, _ = _tables(grid)
    fh = np.fft.fft2(f)
    return np.stack([_real(iky * fh), -_real(ikx * fh)])


def laplacian(grid, f):
    k2 = _tables(grid)[2]
    return _real(-k2 * np.fft.fft2(f))


def _band(grid, values):
    fh = np.fft.fft2(values)
    fh[_tables(grid)[3]] = 0.0
    return _real(fh)


def dealias(grid, field):
    """Projection onto the 2/3-rule band (|m| < N/3 per axis) of a scalar
    or, component by component, a vector field."""
    if field.ndim == 2:
        return _band(grid, field)
    return np.stack([_band(grid, c) for c in field])


def product_scalar_vector(grid, f, w):
    """Pointwise f*w projected onto the dealias band."""
    _require_grid_shapes(grid, f, w)
    return np.stack([_band(grid, f * c) for c in w])


def product_dot(grid, w1, w2):
    """Dealiased pointwise dot product of two vector fields."""
    _require_grid_shapes(grid, w1, w2)
    return _band(grid, w1[0] * w2[0] + w1[1] * w2[1])


def effective_flux(grid, u, v, chi: float):
    """F = grad(u) + chi * u*v with the product dealiased."""
    g = gradient(grid, u)
    if chi == 0.0:
        return g
    return g + chi * product_scalar_vector(grid, u, v)


def assemble_rhs_ut(grid, u, v, chi: float):
    """Right-hand side of the density equation, lap(u) + chi*div(u*v)."""
    out = laplacian(grid, u)
    if chi != 0.0:
        out = out + chi * divergence(grid, product_scalar_vector(grid, u, v))
    return out


def flux_divergence_residual(grid, u, v, chi: float, rhs_ut) -> float:
    """|| div(F) - u_t ||_2 where u_t is the assembled right-hand side."""
    if rhs_ut.shape != u.shape:
        raise ValueError("rhs_ut shape does not match state")
    d = divergence(grid, effective_flux(grid, u, v, chi))
    return lp_norm(grid, d - rhs_ut, 2)


def curl_flux_residual(grid, u, v, chi: float) -> float:
    """|| curl(F) - chi * perp_grad(u).v ||_2 (product dealiased)."""
    lhs = curl2d(grid, effective_flux(grid, u, v, chi))
    rhs = product_dot(grid, perp_gradient(grid, u), v)
    return lp_norm(grid, lhs - chi * rhs, 2)


def smallness(grid, u0, phi0, p0) -> tuple:
    """(theta0, M) of the datum (u0, phi0): ||u0 - 1||_2^2 + ||v0||_2^2 and
    ||v0||_p0 for v0 = grad(phi0)."""
    v0 = gradient(grid, phi0)
    return (lp_norm(grid, u0 - 1.0, 2) ** 2 + lp_norm(grid, v0, 2) ** 2,
            lp_norm(grid, v0, p0))


def gn_ratio(grid, f) -> float:
    """Interpolation-inequality sample ||f||_4^2 / (||f||_2 ||grad f||_2)."""
    gnorm = lp_norm(grid, gradient(grid, f), 2)
    if gnorm == 0.0:
        raise ValueError("gn_ratio undefined for fields with vanishing gradient")
    return lp_norm(grid, f, 4) ** 2 / (lp_norm(grid, f, 2) * gnorm)


def jacobian_frobenius(grid, w):
    """Pointwise Frobenius magnitude of the spectral Jacobian of w."""
    gx = gradient(grid, w[0])
    gy = gradient(grid, w[1])
    return np.sqrt(gx[0] ** 2 + gx[1] ** 2 + gy[0] ** 2 + gy[1] ** 2)


def lemma33_ratio(grid, u, v, ut, p: float, chi: float = 1.0):
    """||grad F||_p / (||u_t||_p + ||perp_grad(u).v||_p), or None when the
    denominator is degenerate.

    For p=2 Parseval splits ||grad F||_2^2 into ||div F||_2^2 + ||curl F||_2^2,
    so with curl-free v the ratio lies in [1/sqrt(2), 1].  A curl in v adds
    chi*u*curl(v) to curl F only, so the ratio grows with the size of that
    curl relative to ||u_t||_p.
    """
    den = lp_norm(grid, ut, p) + lp_norm(
        grid, product_dot(grid, perp_gradient(grid, u), v), p)
    if den <= 1e-14:
        return None
    return lp_norm(grid, jacobian_frobenius(grid, effective_flux(grid, u, v, chi)),
                   p) / den


def project_curl_free(grid, w):
    """Gradient part of the Helmholtz decomposition, mean preserved."""
    ikx, iky, _, _ = _tables(grid)
    kx, ky = ikx.imag, iky.imag
    k2 = kx ** 2 + ky ** 2
    wxh = np.fft.fft2(w[0])
    wyh = np.fft.fft2(w[1])
    coef = np.where(k2 > 0, (kx * wxh + ky * wyh) / np.where(k2 > 0, k2, 1.0), 0.0)
    pxh = kx * coef
    pyh = ky * coef
    pxh[0, 0] = wxh[0, 0]
    pyh[0, 0] = wyh[0, 0]
    return np.stack([_real(pxh), _real(pyh)])


def energy_functionals(grid, pairs, chi: float = 1.0) -> tuple[float, float, float]:
    """Recompute (A1, A2, A3) from a run's ``(node, row)`` pairs on ``grid``.

    The norms of u and v come from each record's CSV columns and those of
    u_t from its node.  Trapezoid integrals and suprema are taken on the
    recording grid, so the result is cadence-limited; the running columns
    in the records are accumulated on the stepping grid and are the sharper
    estimate.
    """
    rows = []   # (record, ||u_t||_2^2, ||grad u_t||_2^2)
    for state, r in pairs:
        ut = assemble_rhs_ut(grid, state.u, state.v, chi)
        rows.append((r, lp_norm(grid, ut, 2) ** 2,
                     lp_norm(grid, gradient(grid, ut), 2) ** 2))
    if not rows:
        raise ValueError("empty trajectory")
    sup_e = max(r.u_l2 ** 2 + r.v_l2 ** 2 for r, _, _ in rows)
    sup_a2 = max(r.sigma * r.grad_u_l2 ** 2 + r.sigma ** 2 * (ut2 + r.grad_u_l2 ** 2)
                 for r, ut2, _ in rows)
    sup_v4 = max(r.v_l4 ** 4 for r, _, _ in rows)
    int_grad = int_a2 = int_v4 = 0.0
    for (r0, ut0, gut0), (r1, ut1, gut1) in zip(rows, rows[1:]):
        h = r1.t - r0.t
        int_grad += 0.5 * h * (r0.grad_u_l2 ** 2 + r1.grad_u_l2 ** 2)
        int_a2 += 0.5 * h * ((r0.sigma * ut0 + r0.sigma ** 2 * gut0)
                             + (r1.sigma * ut1 + r1.sigma ** 2 * gut1))
        int_v4 += 0.5 * h * (r0.v_l4 ** 4 + r1.v_l4 ** 4)
    return sup_e + int_grad, sup_a2 + int_a2, sup_v4 + int_v4


def _energy_terms(r0, r1):
    """(E0, E1, dissipation, forcing) of the energy inequality on [r0.t, r1.t]."""
    h = r1.t - r0.t
    e0 = r0.u_l2 ** 2 + r0.v_l2 ** 2
    e1 = r1.u_l2 ** 2 + r1.v_l2 ** 2
    diss = h * (r0.grad_u_l2 ** 2 + r1.grad_u_l2 ** 2)   # 2 * trapezoid
    forcing = 0.5 * h * (r0.u_l2 ** 2 * r0.v_l4 ** 4 + r1.u_l2 ** 2 * r1.v_l4 ** 4)
    return e0, e1, diss, forcing


def calibrate_energy_constant(records) -> float:
    """Smallest constant C making the discrete energy inequality
    dE <= -2*int |grad u|^2 + C*int ||u-1||^2 ||v||_4^4 hold on the rows."""
    rows = list(records)
    c_needed = 0.0
    for r0, r1 in zip(rows, rows[1:]):
        e0, e1, diss, forcing = _energy_terms(r0, r1)
        excess = e1 - e0 + diss
        if excess > 0 and forcing > 0:
            c_needed = max(c_needed, excess / forcing)
    return c_needed


def check_energy_inequality(records, constant: float, slack: float = 1e-12):
    """Return the times where the calibrated energy inequality fails."""
    rows = list(records)
    violations = []
    for r0, r1 in zip(rows, rows[1:]):
        e0, e1, diss, forcing = _energy_terms(r0, r1)
        if e1 - e0 > -diss + constant * forcing + slack * (1.0 + e0):
            violations.append(r1.t)
    return violations


def amplification(K, dt, c, mode, scheme):
    """The 2 x 2 matrix that takes the coefficients (u_hat, phi_hat) of one
    mode of |k|^2 = K to those after one step of dt of ``mode`` and
    ``scheme``, for the step linearised about (u, v) = (u_bar, 0), v =
    grad(phi) and c = chi u_bar.  Linearised, chi div(u w) is -c K psi_hat for
    a drift w = grad(psi), and the self-transport term chi dt/4 lap P(u^2) is
    -c dt/2 K u_hat.  Both modes carry the half-step drift w = v + dt/2
    grad(u), and phi moves by the trapezoid of u; the self-transport term
    goes to the node's transport term in original mode and to the
    predictor's in transformed mode, which backward Euler does not take."""
    def step(a, p):
        pw = p + 0.5 * dt * a                      # the half-step drift
        t = -c * K * p                             # the node's transport
        if mode == "original":
            t -= 0.5 * c * dt * K * a
        if scheme == "imex_be":
            a1 = (a + dt * t) / (1.0 + dt * K)
        else:
            explicit = (1.0 - 0.5 * dt * K) * a
            a_p = (dt * t + explicit) / (1.0 + 0.5 * dt * K)
            t1 = -c * K * pw
            if mode == "transformed":
                t1 -= 0.5 * c * dt * K * a_p
            a1 = (0.5 * dt * (t + t1) + explicit) / (1.0 + 0.5 * dt * K)
        return a1, pw + 0.5 * dt * a1

    return np.array([step(1.0, 0.0), step(0.0, 1.0)]).T


def spectral_radius(matrix) -> float:
    return float(np.abs(np.linalg.eigvals(matrix)).max())
