"""Random band-limited sample fields shared by the test modules."""

import numpy as np

from chemoflux import ScalarField, VectorField, gradient


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


def band_limited_gradient(grid, seed, kmax=6, amplitude=1.0):
    """Random curl-free vector field (a spectral gradient)."""
    phi = band_limited_field(grid, seed, kmax, zero_mean=True)
    w = gradient(phi)
    scale = amplitude / max(w.magnitude().max(), 1e-300)
    return VectorField(grid, w.values * scale, check=False)
