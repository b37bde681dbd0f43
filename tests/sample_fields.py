"""Sample fields shared by the test modules: constant, from a function of
the sample coordinates, random band-limited, and random potentials and
their gradients; `spectral_gradient`, the gradient that the program takes
on a half spectrum; and `run_rows`, a run that keeps its diagnostics rows."""

import numpy as np

from chemoflux import ChemistryParams, ScalarField, VectorField, run


def run_rows(u0, phi0, cfg, params=None, recorders=(), **kwargs):
    """``run`` from the datum (u0, phi0) that builds the diagnostics row of
    each record node; returns the trajectory and the rows.  The hooks in
    ``recorders`` follow it."""
    rows = []
    traj = run([u0, phi0], cfg, params or ChemistryParams(),
               recorders=(lambda node: rows.append(node.row()), *recorders),
               **kwargs)
    return traj, rows


def spectral_gradient(f):
    """grad(f) as the program takes it, `Grid._gradient` of the half
    spectrum; zero mode annihilated, so components have zero mean."""
    return VectorField(f.grid, f.grid._gradient(np.fft.rfft2(f.values)), check=False)


def zero_drift(grid):
    return VectorField(grid, np.zeros((2,) + grid.shape), check=False)


def constant_field(grid, value):
    return ScalarField(grid, np.full(grid.shape, float(value)), check=False)


def field_from_function(grid, fn):
    """The samples fn(X, Y) at the grid's cell-center coordinates."""
    X, Y = grid.coordinates()
    return ScalarField(grid, fn(X, Y))


def band_limited_field(grid, seed, kmax=6, amplitude=1.0, zero_mean=False):
    """Random real field supported on modes |m| <= kmax per axis."""
    rng = np.random.default_rng(seed)
    fh = np.fft.fft2(rng.standard_normal((grid.resolution, grid.resolution)))
    m = np.abs(np.fft.fftfreq(grid.resolution) * grid.resolution)
    keep = (m[None, :] <= kmax) & (m[:, None] <= kmax)
    if zero_mean:
        keep[0, 0] = False
    fh[~keep] = 0.0
    vals = np.fft.ifft2(fh).real
    vals *= amplitude / np.abs(vals).max()
    return ScalarField(grid, vals)


def band_limited_potential(grid, seed, kmax=6, amplitude=1.0):
    """Random zero-mean potential whose gradient peaks at about ``amplitude``."""
    phi = band_limited_field(grid, seed, kmax, zero_mean=True)
    scale = amplitude / max(spectral_gradient(phi).magnitude().max(), 1e-300)
    return ScalarField(grid, phi.values * scale, check=False)


def band_limited_gradient(grid, seed, kmax=6, amplitude=1.0):
    """Random curl-free vector field, the gradient of `band_limited_potential`."""
    return spectral_gradient(band_limited_potential(grid, seed, kmax, amplitude))
