"""Construction of discontinuous initial data: a datum is a pair (u0, phi0) of
N x N samples, u0 >= 0 and phi0 a zero-mean potential, serving both forms
of the system.  The build returns the datum and nothing else, at full
width: the march runs its dealias-band projection, on which the theta scan
measures its smallness parameters.  Jumps are rasterized by cell-center
sampling, so they survive in the samples; a mollifier of width delta is the
only smoothing.  The rasters are built on the cell-center axis x =
arange(N) * h, broadcast as the row x[None, :] along x and the column
x[:, None] along y, so the build makes no N x N coordinate mesh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .fields import Grid, ParameterError

RECIPE_KINDS = (
    "piecewise_constant_disks",
    "piecewise_constant_stripes",
    "smooth_bump",
)


@dataclass(frozen=True)
class InitialDataRecipe:
    """How to synthesize (u0, phi0): u0 is 1 plus the pattern of ``kind``,
    and phi0 the sum of ``potential_modes``, which every kind takes; a
    potential alone is the disks kind with no disks.

    ``amplitude`` scales the u pattern and the potential modes alike, positions
    and stripe widths are fractions of the box side, and ``delta`` is the
    mollifier width (0: none).  Without ``disks``, ``random_disks`` disks are
    drawn from ``random.Random(seed)``, so a nonnegative seed fixes the layout.
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
        if not self.p0 > 4:   # NaN fails each range check
            raise ParameterError("p0", f"must exceed 4, got {self.p0}")
        if not self.delta >= 0:
            raise ParameterError("delta", f"must be nonnegative, got {self.delta}")
        if not self.seed >= 0:
            raise ParameterError("seed", f"must be nonnegative, got {self.seed}")
        if not self.random_disks >= 0:
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


def check_width(grid: Grid, delta: float) -> float:
    """The mollifier width delta, or a `ParameterError` unless h < delta <= L/4:
    at one cell h or less the kernel is the identity, and above L/4 it wraps."""
    if not grid.spacing < delta <= grid.side_length / 4:
        raise ParameterError("delta", f"{delta!r} is outside (h, L/4] = "
                             f"({grid.spacing!r}, {grid.side_length / 4!r}]: at one "
                             "cell or less the kernel is the identity, and above "
                             "L/4 it wraps")
    return delta


def mollifier_kernel(grid: Grid, delta: float) -> np.ndarray:
    """Half spectrum of the discrete radial bump (1 - (r/delta)^2)^3 of unit
    mass and support r <= delta, for a width that `check_width` accepts."""
    check_width(grid, delta)
    x = np.arange(grid.resolution) * grid.spacing
    d = np.minimum(x, grid.side_length - x)  # min-image distance to 0
    r2 = (d[None, :] ** 2 + d[:, None] ** 2) / delta ** 2
    w = np.clip(1.0 - r2, 0.0, None) ** 3
    return np.fft.rfft2(w / w.sum())


def mollify(grid: Grid, x: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """Circular convolution of the samples x, N x N or (2, N, N), with the
    kernel whose half spectrum ``ker`` is `mollifier_kernel`'s; it keeps the
    mean and stays inside [min x, max x]."""
    zh = np.fft.rfft2(x)
    zh *= ker
    return np.fft.irfft2(zh, s=grid.shape)


def _min_image(d: np.ndarray, L: float) -> np.ndarray:
    return d - L * np.round(d / L)


def _raster_u(recipe: InitialDataRecipe, grid: Grid, x) -> np.ndarray:
    X, Y = x[None, :], x[:, None]
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
    return u


def _raster_potential(recipe: InitialDataRecipe, grid: Grid, x) -> np.ndarray:
    X, Y = x[None, :], x[:, None]
    L = grid.side_length
    phi = np.zeros((grid.resolution, grid.resolution))
    for mx, my, amp, phase in recipe.potential_modes:
        phi += recipe.amplitude * amp * np.sin(
            2 * np.pi * (mx * X + my * Y) / L + phase)
    return phi


def build_initial_data(recipe: InitialDataRecipe, grid: Grid):
    """Rasterize a recipe into the datum (u0, phi0), two N x N arrays.

    A ValueError if u0 < 0 anywhere, or if the mollifier is at most one cell
    wide or wider than L/4.
    phi0 is the potential, zero without potential modes, with its mean mode
    zeroed; for delta > 0, u0 and phi0 are mollified alike.
    """
    x = np.arange(grid.resolution) * grid.spacing   # the cell-center axis
    u0 = _raster_u(recipe, grid, x)
    umin = u0.min()
    if umin < 0:
        raise ValueError(
            f"recipe produces negative cell density (min u0 = {umin}); "
            "u0 >= 0 is required")
    phi = _raster_potential(recipe, grid, x)
    ph = np.fft.rfft2(phi)
    del phi
    ph[0, 0] = 0.0   # a zero-mean potential
    if recipe.delta > 0:   # one kernel spectrum mollifies both
        ker = mollifier_kernel(grid, recipe.delta)
        u0 = mollify(grid, u0, ker)
        ph *= ker
    return u0, np.fft.irfft2(ph, s=grid.shape)
