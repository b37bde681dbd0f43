"""Sample fields shared by the test modules, as plain arrays: constant, from
a function of the sample coordinates, random band-limited, and random
potentials and their gradients; `spectral_gradient`, the gradient that the
program takes on a half spectrum; and `run_rows`, a run that keeps its
diagnostics rows."""

import numpy as np

from chemoflux import ChemistryParams, run


def run_rows(grid, u0, phi0, cfg, params=None, recorders=(), **kwargs):
    """``run`` on ``grid`` from the datum (u0, phi0) that builds the
    diagnostics row of each record node; returns the trajectory and the
    rows.  The hooks in ``recorders`` follow it."""
    rows = []
    traj = run([u0, phi0], cfg, params or ChemistryParams(),
               recorders=(lambda node: rows.append(node.row()), *recorders),
               grid=grid, **kwargs)
    return traj, rows


def spectral_gradient(grid, f):
    """grad(f), a (2, N, N) array, as the program takes it, `Grid._gradient`
    of the half spectrum; zero mode annihilated, so components have zero
    mean."""
    return grid._gradient(np.fft.rfft2(f))


def magnitude(w):
    """Pointwise Euclidean magnitude of a (2, N, N) vector field."""
    return np.sqrt(w[0] ** 2 + w[1] ** 2)


def zero_drift(grid):
    return np.zeros((2,) + grid.shape)


def constant_field(grid, value):
    return np.full(grid.shape, float(value))


def field_from_function(grid, fn):
    """The samples fn(X, Y) at the grid's cell-center coordinates."""
    X, Y = grid.coordinates()
    return fn(X, Y)


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
    return vals


def band_limited_potential(grid, seed, kmax=6, amplitude=1.0):
    """Random zero-mean potential whose gradient peaks at about ``amplitude``."""
    phi = band_limited_field(grid, seed, kmax, zero_mean=True)
    scale = amplitude / max(magnitude(spectral_gradient(grid, phi)).max(), 1e-300)
    return phi * scale


def band_limited_gradient(grid, seed, kmax=6, amplitude=1.0):
    """Random curl-free vector field, the gradient of `band_limited_potential`."""
    return spectral_gradient(grid, band_limited_potential(grid, seed, kmax, amplitude))
