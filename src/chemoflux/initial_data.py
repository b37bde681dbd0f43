"""Construction of discontinuous, curl-free-compatible initial data.

A datum is a pair (u0, v0) with u0 >= 0 and v0 a gradient field.  Jump
data (disks, stripes) are rasterized by cell-center sampling with no
anti-aliasing, so arbitrarily large jumps survive in the stored field;
an optional compact mollifier of width delta is the only smoothing agent.
The vector part is always synthesized as the gradient of a potential,
which makes the zero-curl requirement structural rather than numerical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (Grid, ParameterError, ScalarField, VectorField, curl2d,
                     gradient, lp_norm)

RECIPE_KINDS = (
    "piecewise_constant_disks",
    "piecewise_constant_stripes",
    "smooth_bump",
    "from_potential",
)


@dataclass(frozen=True)
class InitialDataRecipe:
    """Parameters describing how to synthesize (u0, v0).

    ``amplitude`` is a global scale: it multiplies the per-feature weights
    of the u pattern and the potential-mode amplitudes alike.  Geometry is
    given in fractions of the box side.  ``delta`` is the mollifier width
    in physical units (0 disables mollification).
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

    def scaled(self, amplitude: float) -> "InitialDataRecipe":
        return replace(self, amplitude=amplitude)


@dataclass(frozen=True)
class DataSummary:
    """Smallness parameters measured from the produced fields.

    ``theta0`` is recomputable from the returned (possibly mollified)
    fields; ``theta0_raw`` is the same quantity for the unsmoothed datum,
    which upper-bounds it and is the reference scale of the energy bound.
    """

    theta0: float          # ||u0-1||_2^2 + ||v0||_2^2 of the produced fields
    M: float               # ||v0||_{p0}
    linf_amplitude: float  # ||u0-1||_inf + ||v0||_inf
    delta: float
    eta0: float
    theta0_raw: float = 0.0


def compute_eta0(p0: float) -> float:
    """(p0-4) / (2 (p0-2)), valid for p0 > 4; lies in (0, 1/2)."""
    if p0 <= 4:
        raise ValueError(f"p0 must exceed 4, got {p0}")
    return (p0 - 4.0) / (2.0 * (p0 - 2.0))


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


def mollify(f: ScalarField, delta: float) -> ScalarField:
    """Circular convolution with the width-delta kernel; preserves the mean
    and keeps values inside [min f, max f]."""
    g = f.grid
    ker = np.fft.rfft2(mollifier_kernel(g, delta))
    out = np.fft.irfft2(np.fft.rfft2(f.values) * ker, s=g.shape)
    return ScalarField(g, out, check=False)


def mollify_vector(w: VectorField, delta: float) -> VectorField:
    g = w.grid
    ker = np.fft.rfft2(mollifier_kernel(g, delta))
    out = np.empty_like(w.values)
    for i in (0, 1):
        out[i] = np.fft.irfft2(np.fft.rfft2(w.values[i]) * ker, s=g.shape)
    return VectorField(g, out, check=False)


def potential_of(w: VectorField) -> ScalarField:
    """Zero-mean potential phi with gradient(phi) equal to the gradient part
    of w; exact inverse of `gradient` on curl-free, mean-zero fields."""
    g = w.grid
    kx, ky = g._kx_deriv, g._ky_deriv
    k2 = kx ** 2 + ky ** 2
    wxh = np.fft.rfft2(w.values[0])
    wyh = np.fft.rfft2(w.values[1])
    ph = np.where(k2 > 0, (kx * wxh + ky * wyh) / (1j * np.where(k2 > 0, k2, 1.0)), 0.0)
    return ScalarField(g, np.fft.irfft2(ph, s=g.shape), check=False)


def _min_image(d: np.ndarray, L: float) -> np.ndarray:
    return d - L * np.round(d / L)


def _raster_u(recipe: InitialDataRecipe, grid: Grid) -> np.ndarray:
    L = grid.side_length
    X, Y = grid.coordinates()
    u = np.ones((grid.resolution, grid.resolution))
    a = recipe.amplitude
    if recipe.kind == "piecewise_constant_disks":
        disks = list(recipe.disks)
        if not disks and recipe.random_disks > 0:
            rng = np.random.default_rng(recipe.seed)
            for i in range(recipe.random_disks):
                cx, cy = rng.uniform(0.2, 0.8, size=2)
                r = rng.uniform(0.03, 0.08) * L
                disks.append((cx, cy, r, 1.0 if i % 2 == 0 else -1.0))
        for cx, cy, radius, weight in disks:
            dx = _min_image(X - cx * L, L)
            dy = _min_image(Y - cy * L, L)
            u += a * weight * (dx ** 2 + dy ** 2 < radius ** 2)
    elif recipe.kind == "piecewise_constant_stripes":
        frac = X / L
        for start, width, weight in recipe.stripes:
            inside = (frac - start) % 1.0 < width
            u += a * weight * inside
    elif recipe.kind == "smooth_bump":
        cx, cy = recipe.bump_center
        k = recipe.bump_sharpness
        u += a * (np.exp(k * (np.cos(2 * np.pi * (X - cx * L) / L) - 1.0))
                  * np.exp(k * (np.cos(2 * np.pi * (Y - cy * L) / L) - 1.0)))
    # from_potential leaves u identically 1
    return u


def _raster_potential(recipe: InitialDataRecipe, grid: Grid) -> np.ndarray | None:
    if not recipe.potential_modes:
        return None
    L = grid.side_length
    X, Y = grid.coordinates()
    phi = np.zeros((grid.resolution, grid.resolution))
    for mx, my, amp, phase in recipe.potential_modes:
        phi += recipe.amplitude * amp * np.sin(
            2 * np.pi * (mx * X + my * Y) / L + phase)
    return phi


def build_initial_data(recipe: InitialDataRecipe, grid: Grid):
    """Rasterize a recipe into (u0, v0, summary).

    Raises if the recipe produces u0 < 0 anywhere or violates p0 > 4.
    When delta > 0, u0 and v0 are convolved with the same kernel.
    """
    u_vals = _raster_u(recipe, grid)
    umin = u_vals.min()
    if umin < 0:
        raise ValueError(
            f"recipe produces negative cell density (min u0 = {umin}); "
            "u0 >= 0 is required")
    u0 = ScalarField(grid, u_vals, check=False)

    phi_vals = _raster_potential(recipe, grid)
    if phi_vals is None:
        v0 = VectorField.zero(grid)
    else:
        v0 = gradient(ScalarField(grid, phi_vals, check=False))

    theta0_raw = lp_norm(ScalarField(grid, u0.values - 1.0, check=False), 2) ** 2 \
        + lp_norm(v0, 2) ** 2
    if recipe.delta > 0:
        u0 = mollify(u0, recipe.delta)
        v0 = mollify_vector(v0, recipe.delta)

    u_tilde = ScalarField(grid, u0.values - 1.0, check=False)
    theta0 = lp_norm(u_tilde, 2) ** 2 + lp_norm(v0, 2) ** 2
    summary = DataSummary(
        theta0=theta0,
        M=lp_norm(v0, recipe.p0),
        linf_amplitude=lp_norm(u_tilde, np.inf) + lp_norm(v0, np.inf),
        delta=recipe.delta,
        eta0=compute_eta0(recipe.p0),
        theta0_raw=theta0_raw,
    )
    curl_sup = lp_norm(curl2d(v0), np.inf)
    if curl_sup > 1e-10:
        raise AssertionError(
            f"constructed v0 is not curl-free (sup |curl| = {curl_sup})")
    return u0, v0, summary
