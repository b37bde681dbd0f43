"""Reference operators on full complex spectra, one operator at a time.

The program computes on half spectra (``np.fft.rfft2``) in a single pass;
these operators compute the same quantities with ``np.fft.fft2`` over the
whole N x N spectrum, from their own wavenumber tables built out of
``grid.wavenumbers``.  They share no spectral code with ``chemoflux``, so
the tests use them as an independent check of it.

The energy functionals and the energy inequality are recomputed here from
a run's diagnostics rows, with ||u_t||_2 and ||grad u_t||_2 measured on
each recorded state through `assemble_rhs_ut`, independently of the
stepper's node norms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from chemoflux import ScalarField, VectorField, lp_norm


@lru_cache(maxsize=None)
def _tables(grid):
    """(ikx, iky, k_squared, out_of_band) in full FFT index order."""
    n = grid.resolution
    k = grid.wavenumbers
    k_deriv = k.copy()
    k_deriv[n // 2] = 0.0   # Nyquist has no sign partner
    # rounded, since fftfreq(n) * n is not always an exact integer
    # (3.0000000000000004 at n=10)
    keep = np.abs(np.round(np.fft.fftfreq(n) * n)) <= (n - 1) // 3
    return (1j * k_deriv[None, :], 1j * k_deriv[:, None],
            k[None, :] ** 2 + k[:, None] ** 2, ~(keep[None, :] & keep[:, None]))


def _real(ah):
    return np.fft.ifft2(ah).real


def _require_same_grid(a, b):
    if a.grid is not b.grid and a.grid != b.grid:
        raise ValueError("fields live on different grids")


def gradient(f: ScalarField) -> VectorField:
    ikx, iky, _, _ = _tables(f.grid)
    fh = np.fft.fft2(f.values)
    return VectorField(f.grid, np.stack([_real(ikx * fh), _real(iky * fh)]),
                       check=False)


def divergence(w: VectorField) -> ScalarField:
    ikx, iky, _, _ = _tables(w.grid)
    d = _real(ikx * np.fft.fft2(w.values[0]) + iky * np.fft.fft2(w.values[1]))
    return ScalarField(w.grid, d, check=False)


def curl2d(w: VectorField) -> ScalarField:
    """Scalar curl d2(w1) - d1(w2)."""
    ikx, iky, _, _ = _tables(w.grid)
    c = _real(iky * np.fft.fft2(w.values[0]) - ikx * np.fft.fft2(w.values[1]))
    return ScalarField(w.grid, c, check=False)


def perp_gradient(f: ScalarField) -> VectorField:
    """Rotated gradient (d2 f, -d1 f)."""
    ikx, iky, _, _ = _tables(f.grid)
    fh = np.fft.fft2(f.values)
    return VectorField(f.grid, np.stack([_real(iky * fh), -_real(ikx * fh)]),
                       check=False)


def laplacian(f: ScalarField) -> ScalarField:
    k2 = _tables(f.grid)[2]
    return ScalarField(f.grid, _real(-k2 * np.fft.fft2(f.values)), check=False)


def _band(grid, values):
    fh = np.fft.fft2(values)
    fh[_tables(grid)[3]] = 0.0
    return _real(fh)


def dealias(field):
    """Projection onto the 2/3-rule band (|m| < N/3 per axis)."""
    g = field.grid
    if isinstance(field, ScalarField):
        return ScalarField(g, _band(g, field.values), check=False)
    return VectorField(g, np.stack([_band(g, c) for c in field.values]),
                       check=False)


def product_scalar_vector(f: ScalarField, w: VectorField) -> VectorField:
    """Pointwise f*w projected onto the dealias band."""
    _require_same_grid(f, w)
    return VectorField(f.grid, np.stack([_band(f.grid, f.values * c)
                                         for c in w.values]), check=False)


def product_dot(w1: VectorField, w2: VectorField) -> ScalarField:
    """Dealiased pointwise dot product of two vector fields."""
    _require_same_grid(w1, w2)
    dot = w1.values[0] * w2.values[0] + w1.values[1] * w2.values[1]
    return ScalarField(w1.grid, _band(w1.grid, dot), check=False)


def effective_flux(u: ScalarField, v: VectorField, chi: float) -> VectorField:
    """F = grad(u) + chi * u*v with the product dealiased."""
    g = gradient(u)
    if chi == 0.0:
        return g
    p = product_scalar_vector(u, v)
    return VectorField(u.grid, g.values + chi * p.values, check=False)


def assemble_rhs_ut(u: ScalarField, v: VectorField, chi: float) -> ScalarField:
    """Right-hand side of the density equation, lap(u) + chi*div(u*v)."""
    out = laplacian(u).values
    if chi != 0.0:
        out = out + chi * divergence(product_scalar_vector(u, v)).values
    return ScalarField(u.grid, out, check=False)


def flux_divergence_residual(u: ScalarField, v: VectorField, chi: float,
                             rhs_ut: ScalarField) -> float:
    """|| div(F) - u_t ||_2 where u_t is the assembled right-hand side."""
    if rhs_ut.values.shape != u.values.shape:
        raise ValueError("rhs_ut shape does not match state")
    d = divergence(effective_flux(u, v, chi))
    return lp_norm(ScalarField(u.grid, d.values - rhs_ut.values, check=False), 2)


def curl_flux_residual(u: ScalarField, v: VectorField, chi: float) -> float:
    """|| curl(F) - chi * perp_grad(u).v ||_2 (product dealiased)."""
    lhs = curl2d(effective_flux(u, v, chi))
    rhs = product_dot(perp_gradient(u), v)
    return lp_norm(ScalarField(u.grid, lhs.values - chi * rhs.values, check=False), 2)


def gn_ratio(f: ScalarField) -> float:
    """Interpolation-inequality sample ||f||_4^2 / (||f||_2 ||grad f||_2)."""
    gnorm = lp_norm(gradient(f), 2)
    if gnorm == 0.0:
        raise ValueError("gn_ratio undefined for fields with vanishing gradient")
    return lp_norm(f, 4) ** 2 / (lp_norm(f, 2) * gnorm)


def jacobian_frobenius(w: VectorField) -> ScalarField:
    """Pointwise Frobenius magnitude of the spectral Jacobian of w."""
    gx = gradient(ScalarField(w.grid, w.values[0], check=False))
    gy = gradient(ScalarField(w.grid, w.values[1], check=False))
    mag = np.sqrt(gx.values[0] ** 2 + gx.values[1] ** 2
                  + gy.values[0] ** 2 + gy.values[1] ** 2)
    return ScalarField(w.grid, mag, check=False)


def lemma33_ratio(u: ScalarField, v: VectorField, ut: ScalarField, p: float,
                  chi: float = 1.0):
    """||grad F||_p / (||u_t||_p + ||perp_grad(u).v||_p), or None when the
    denominator is degenerate.

    For p=2 Parseval splits ||grad F||_2^2 into ||div F||_2^2 + ||curl F||_2^2,
    so with curl-free v the ratio lies in [1/sqrt(2), 1].  A curl in v adds
    chi*u*curl(v) to curl F only, so the ratio grows with the size of that
    curl relative to ||u_t||_p.
    """
    den = lp_norm(ut, p) + lp_norm(product_dot(perp_gradient(u), v), p)
    if den <= 1e-14:
        return None
    return lp_norm(jacobian_frobenius(effective_flux(u, v, chi)), p) / den


def project_curl_free(w: VectorField) -> VectorField:
    """Gradient part of the Helmholtz decomposition, mean preserved."""
    ikx, iky, _, _ = _tables(w.grid)
    kx, ky = ikx.imag, iky.imag
    k2 = kx ** 2 + ky ** 2
    wxh = np.fft.fft2(w.values[0])
    wyh = np.fft.fft2(w.values[1])
    coef = np.where(k2 > 0, (kx * wxh + ky * wyh) / np.where(k2 > 0, k2, 1.0), 0.0)
    pxh = kx * coef
    pyh = ky * coef
    pxh[0, 0] = wxh[0, 0]
    pyh[0, 0] = wyh[0, 0]
    return VectorField(w.grid, np.stack([_real(pxh), _real(pyh)]), check=False)


def energy_functionals(pairs, chi: float = 1.0) -> tuple[float, float, float]:
    """Recompute (A1, A2, A3) from a run's ``(node, row)`` pairs.

    The norms of u and v come from each record's CSV columns and those of
    u_t from its node.  Trapezoid integrals and suprema are taken on the
    recording grid, so the result is cadence-limited; the running columns
    in the records are accumulated on the stepping grid and are the sharper
    estimate.
    """
    rows = []   # (record, ||u_t||_2^2, ||grad u_t||_2^2)
    for state, r in pairs:
        ut = assemble_rhs_ut(state.u, state.v, chi)
        rows.append((r, lp_norm(ut, 2) ** 2, lp_norm(gradient(ut), 2) ** 2))
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
