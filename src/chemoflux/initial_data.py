"""Construction of discontinuous initial data.

A datum is a pair (u0, phi0) of N x N sample arrays, with u0 >= 0 and
phi0 a zero-mean potential; it serves both forms of the system through
the Cole-Hopf substitution, c0 = exp(-mu phi0) and v0 = grad(phi0), which
`evolve.march` applies at its start.  Jump data (disks, stripes) are
rasterized by cell-center sampling with no anti-aliasing, so arbitrarily
large jumps survive in the stored field; an optional compact mollifier of
width delta is the only smoothing agent.  v0 is formed only here, for the smallness parameters:
the drift is a gradient by construction, so zero curl is structural.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .fields import Grid, ParameterError, lp_norm, spectral_power

RECIPE_KINDS = (
    "piecewise_constant_disks",
    "piecewise_constant_stripes",
    "smooth_bump",
    "from_potential",
)


@dataclass(frozen=True)
class InitialDataRecipe:
    """Parameters describing how to synthesize (u0, phi0).

    ``amplitude`` is a global scale: it multiplies the per-feature weights
    of the u pattern and the potential-mode amplitudes alike.  Geometry is
    given in fractions of the box side.  ``delta`` is the mollifier width
    in physical units (0 disables mollification).

    Without explicit ``disks``, ``random_disks`` > 0 draws that many from
    ``random.Random(seed)``, whose stream CPython keeps fixed for an integer
    seed: for each disk ``cx`` and then ``cy``, each uniform on [0.2, 0.8],
    then the radius as ``uniform(0.03, 0.08)`` times the box side, with
    weights alternating +1, -1 from the first.  ``seed`` must be
    nonnegative: the generator would give -n the layout of n.  So must
    ``random_disks``, and each disk's radius must be positive.  A stripe's
    width is a fraction of the side in (0, 1]: no cell lies in a stripe of
    width <= 0.
    """

    kind: str = "piecewise_constant_disks"
    amplitude: float = 0.0
    p0: float = 6.0
    delta: float = 0.0
    seed: int = 0
    disks: tuple = ()            # (cx_frac, cy_frac, radius, weight)
    random_disks: int = 0
    stripes: tuple = ()          # (start_frac, width_frac, weight)
    bump_center: tuple = (0.5, 0.5)
    bump_sharpness: float = 16.0
    potential_modes: tuple = ()  # (mx, my, amplitude, phase)

    def __post_init__(self):
        if self.kind not in RECIPE_KINDS:
            raise ParameterError("kind",
                                 f"must be one of {RECIPE_KINDS}, got {self.kind!r}")
        if self.p0 <= 4:
            raise ParameterError("p0", f"must exceed 4, got {self.p0}")
        if self.delta < 0:
            raise ParameterError("delta", f"must be nonnegative, got {self.delta}")
        if self.seed < 0:
            raise ParameterError("seed", f"must be nonnegative, got {self.seed}")
        if self.random_disks < 0:
            raise ParameterError("random_disks",
                                 f"must be nonnegative, got {self.random_disks}")
        for disk in self.disks:
            if not disk[2] > 0:
                raise ParameterError("disks", "must each have a positive radius, "
                                     f"got {','.join(map(repr, disk))}")
        for stripe in self.stripes:
            if not 0 < stripe[1] <= 1:
                raise ParameterError("stripes", "must each have a width in (0, 1], "
                                     f"got {','.join(map(repr, stripe))}")


@dataclass(frozen=True)
class DataSummary:
    """Smallness parameters measured from the produced fields.

    ``theta0`` is recomputable from the returned (possibly mollified)
    datum, with v0 = grad(phi0); ``theta0_raw`` is the same quantity for the
    unsmoothed datum, which upper-bounds it and is the reference scale of
    the energy bound.
    """

    theta0: float       # ||u0-1||_2^2 + ||v0||_2^2 of the produced fields
    M: float            # ||v0||_{p0}
    theta0_raw: float


def mollifier_kernel(grid: Grid, delta: float) -> np.ndarray:
    """Discrete radial bump (1 - (r/delta)^2)^3, unit mass, support r <= delta."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if delta > grid.side_length / 4:
        raise ValueError(
            f"delta={delta} exceeds L/4={grid.side_length / 4}; kernel would wrap")
    x = np.arange(grid.resolution) * grid.spacing
    d = np.minimum(x, grid.side_length - x)  # min-image distance to 0
    r2 = (d[None, :] ** 2 + d[:, None] ** 2) / delta ** 2
    w = np.where(r2 < 1.0, (1.0 - np.minimum(r2, 1.0)) ** 3, 0.0)
    return w / w.sum()


def mollify(grid: Grid, x: np.ndarray, delta: float, ker=None) -> np.ndarray:
    """Circular convolution of the samples x, N x N or (2, N, N), with the
    width-delta kernel, component by component (the transforms act on the
    last two axes); preserves the mean and keeps values inside
    [min x, max x].

    ``ker`` is the kernel's half spectrum, ``np.fft.rfft2`` of
    `mollifier_kernel`; a caller that convolves several fields with one
    kernel passes it, and it is taken here otherwise.
    """
    if ker is None:
        ker = np.fft.rfft2(mollifier_kernel(grid, delta))
    zh = np.fft.rfft2(x)
    zh *= ker
    return np.fft.irfft2(zh, s=grid.shape)


def _min_image(d: np.ndarray, L: float) -> np.ndarray:
    return d - L * np.round(d / L)


def _raster_u(recipe: InitialDataRecipe, grid: Grid, X, Y) -> np.ndarray:
    L = grid.side_length
    u = np.ones((grid.resolution, grid.resolution))
    a = recipe.amplitude
    if recipe.kind == "piecewise_constant_disks":
        disks = list(recipe.disks)
        if not disks and recipe.random_disks > 0:
            rng = random.Random(recipe.seed)
            for i in range(recipe.random_disks):
                cx, cy = rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
                r = rng.uniform(0.03, 0.08) * L
                disks.append((cx, cy, r, 1.0 if i % 2 == 0 else -1.0))
        for cx, cy, radius, weight in disks:
            dx = _min_image(X - cx * L, L)
            dy = _min_image(Y - cy * L, L)
            u += a * weight * (dx ** 2 + dy ** 2 < radius ** 2)
    elif recipe.kind == "piecewise_constant_stripes":
        frac = X / L
        for start, width, weight in recipe.stripes:
            u += a * weight * ((frac - start) % 1.0 < width)
    elif recipe.kind == "smooth_bump":
        cx, cy = recipe.bump_center
        k = recipe.bump_sharpness
        u += a * (np.exp(k * (np.cos(2 * np.pi * (X - cx * L) / L) - 1.0))
                  * np.exp(k * (np.cos(2 * np.pi * (Y - cy * L) / L) - 1.0)))
    # from_potential leaves u identically 1
    return u


def _raster_potential(recipe: InitialDataRecipe, grid: Grid, X, Y) -> np.ndarray | None:
    if not recipe.potential_modes:
        return None
    L = grid.side_length
    phi = np.zeros((grid.resolution, grid.resolution))
    for mx, my, amp, phase in recipe.potential_modes:
        phi += recipe.amplitude * amp * np.sin(
            2 * np.pi * (mx * X + my * Y) / L + phase)
    return phi


def _deviation_sq(grid: Grid, u: np.ndarray) -> float:
    """||u - 1||_2^2."""
    return lp_norm(grid, u - 1.0, 2) ** 2


def build_initial_data(recipe: InitialDataRecipe, grid: Grid):
    """Rasterize a recipe into (u0, phi0, summary), u0 and phi0 N x N arrays.

    Raises if the recipe produces u0 < 0 anywhere or violates p0 > 4.
    phi0 is the rasterized potential with its mean mode zeroed, or zero
    where the recipe has no potential modes.  When delta > 0, u0 and phi0
    are convolved with the same kernel, whose spectrum is taken once.  The
    potential is transformed once: its spectrum gives phi0, the v0 =
    grad(phi0) that M reads, and ||v0||_2^2 of theta0 and theta0_raw by
    Parseval.  A zero potential takes no transform.
    """
    X, Y = grid.coordinates()
    u0 = _raster_u(recipe, grid, X, Y)
    umin = u0.min()
    if umin < 0:
        raise ValueError(
            f"recipe produces negative cell density (min u0 = {umin}); "
            "u0 >= 0 is required")
    phi = _raster_potential(recipe, grid, X, Y)
    del X, Y
    theta0_raw = _deviation_sq(grid, u0)
    ker = None
    if recipe.delta > 0:
        ker = np.fft.rfft2(mollifier_kernel(grid, recipe.delta))
        u0 = mollify(grid, u0, recipe.delta, ker)
    theta0 = _deviation_sq(grid, u0)
    if phi is None:
        summary = DataSummary(theta0=theta0, M=0.0, theta0_raw=theta0_raw)
        return u0, np.zeros(grid.shape), summary

    ph = np.fft.rfft2(phi)
    del phi
    ph[0, 0] = 0.0   # a zero-mean potential
    w = grid.cell_area / grid.resolution ** 2   # Parseval: ||v0||_2^2
    theta0_raw += w * grid.gradient_power(spectral_power(ph))
    if ker is not None:
        ph *= ker
        del ker
    theta0 += w * grid.gradient_power(spectral_power(ph))
    phi0 = np.fft.irfft2(ph, s=grid.shape)
    v0 = grid._gradient(ph)
    del ph
    summary = DataSummary(theta0=theta0, M=lp_norm(grid, v0, recipe.p0),
                          theta0_raw=theta0_raw)
    return u0, phi0, summary
