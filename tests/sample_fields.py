"""Sample fields shared by the test modules, as plain arrays: the sample
coordinates, constant, from a function of them, random band-limited, and random
potentials and their gradients; `spectral_gradient`, the gradient that the
program takes on a half spectrum; `run_rows`, a run that keeps its
diagnostics rows; and `recipes_of_each_kind`, data recipes to build."""

import numpy as np

from chemoflux import ChemistryParams, InitialDataRecipe, run
from chemoflux.fields import band_rfft2


def run_rows(grid, u0, phi0, cfg, params=None, recorders=(), **kwargs):
    """``run`` on ``grid`` from the datum (u0, phi0) that builds the
    diagnostics row of each record node; returns the node at t_end and the
    rows.  The hooks in ``recorders`` follow it."""
    rows = []
    final = run([u0, phi0], cfg, params or ChemistryParams(),
                recorders=(lambda node: rows.append(node.row(6.0)), *recorders),
                grid=grid, **kwargs)
    return final, rows


def spectral_gradient(grid, f):
    """grad(f), a (2, N, N) array, as the program takes it, `Grid._gradient`
    of the dealias band `band_rfft2`, so exact for a band-limited f; zero
    mode annihilated, so components have zero mean."""
    return grid._gradient(band_rfft2(f))


def magnitude(w):
    """Pointwise Euclidean magnitude of a (2, N, N) vector field."""
    return np.sqrt(w[0] ** 2 + w[1] ** 2)


def zero_drift(grid):
    return np.zeros((2,) + grid.shape)


def coordinates(grid):
    """Cell-center sample coordinates (X, Y), each N x N."""
    x = np.arange(grid.resolution) * grid.spacing
    return np.meshgrid(x, x, indexing="xy")


def constant_field(grid, value):
    return np.full(grid.shape, float(value))


def field_from_function(grid, fn):
    """The samples fn(X, Y) at the grid's cell-center coordinates."""
    X, Y = coordinates(grid)
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


def recipes_of_each_kind(h):
    """Recipes of three kinds and a random layout on a grid of spacing h, the
    disks and the stripes mollified at 2h, the disks and the bump with
    potential modes."""
    return [
        InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.4,
                          delta=2 * h, disks=((0.3, 0.4, 2.0, 1.0),
                                              (0.7, 0.6, 1.5, -1.0)),
                          potential_modes=((1, 1, 0.5, 0.3),)),
        InitialDataRecipe(kind="piecewise_constant_stripes", amplitude=0.8,
                          delta=2 * h, stripes=((0.2, 0.25, 1.0),)),
        InitialDataRecipe(kind="smooth_bump", amplitude=0.5, bump_sharpness=10.0,
                          potential_modes=((2, 0, 1.0, 0.0),)),
        InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.2,
                          random_disks=4, seed=7),
    ]
