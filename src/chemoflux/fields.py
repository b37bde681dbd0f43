"""Periodic 2D fields and spectral operators on the torus [0, L)^2.

All differential operators act in Fourier space on a uniform N x N grid.
The unbounded plane is truncated to a large periodic box; solutions of
interest decay to a constant state, so periodic images interact weakly
when L is large.  Conventions:

* wavenumbers are 2*pi*m/L with m in the standard FFT index order,
* the Nyquist mode is zeroed in odd (first-derivative) operators so that
  real fields stay real and the operators are antisymmetric,
* quadratic products are dealiased with the 2/3 rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Torus geometry and spectral wavenumber tables.

    side_length is the period in both directions; resolution is the number
    of samples per axis (even, at least 8).
    """

    side_length: float
    resolution: int

    def __post_init__(self):
        if self.side_length <= 0:
            raise ValueError(f"side_length must be positive, got {self.side_length}")
        n = self.resolution
        if n < 8 or n % 2 != 0:
            raise ValueError(f"resolution must be an even integer >= 8, got {n}")

    @property
    def spacing(self) -> float:
        return self.side_length / self.resolution

    @property
    def cell_area(self) -> float:
        return self.spacing ** 2

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Per-axis table 2*pi*m/L, FFT index order (length N)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.resolution, d=self.spacing)

    @cached_property
    def _k_deriv(self) -> np.ndarray:
        """Per-axis table for odd (first-derivative) operators."""
        k = self.wavenumbers.copy()
        k[self.resolution // 2] = 0.0  # Nyquist has no sign partner
        return k

    # Derivative tables are separable, so they are kept as broadcastable
    # (1, N) rows (x varies along columns) and (N, 1) columns (y along rows).
    @cached_property
    def _kx_deriv(self) -> np.ndarray:
        return self._k_deriv[None, :]

    @cached_property
    def _ky_deriv(self) -> np.ndarray:
        return self._k_deriv[:, None]

    @cached_property
    def _ikx(self) -> np.ndarray:
        return 1j * self._kx_deriv

    @cached_property
    def _iky(self) -> np.ndarray:
        return 1j * self._ky_deriv

    @cached_property
    def _k_squared(self) -> np.ndarray:
        k = self.wavenumbers
        return k[None, :] ** 2 + k[:, None] ** 2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Square 2/3-rule mask: keep |m| <= N//3 on each axis."""
        n = self.resolution
        m = np.abs(np.fft.fftfreq(n) * n)
        keep = m <= n // 3
        return keep[None, :] & keep[:, None]

    @cached_property
    def _out_of_band(self) -> np.ndarray:
        return ~self.dealias_mask

    def gradient_power(self, power: np.ndarray) -> float:
        """Sum of (kx^2 + ky^2) * power, with the derivative wavenumbers.

        ``power`` is |f_hat|^2 of some field f; the result times
        cell_area / N^2 is ||grad f||_2^2 by Parseval.
        """
        k2 = self._k_deriv ** 2
        return float(power.sum(axis=0) @ k2 + power.sum(axis=1) @ k2)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center sample coordinates (X, Y), each N x N."""
        x = np.arange(self.resolution) * self.spacing
        return np.meshgrid(x, x, indexing="xy")


class ScalarField:
    """Real samples on a Grid, row-major N x N array."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray, check: bool = True):
        values = np.asarray(values, dtype=np.float64)
        n = grid.resolution
        if values.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {values.shape}")
        if check and not np.isfinite(values).all():
            raise ValueError("scalar field contains non-finite samples")
        self.grid = grid
        self.values = values

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), check=False)

    def mean(self) -> float:
        return float(self.values.mean())

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.resolution, grid.resolution), float(value)), check=False)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        X, Y = grid.coordinates()
        return cls(grid, np.asarray(fn(X, Y), dtype=np.float64))


class VectorField:
    """Two scalar components sharing one Grid, stored as a (2, N, N) array."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray, check: bool = True):
        values = np.asarray(values, dtype=np.float64)
        n = grid.resolution
        if values.shape != (2, n, n):
            raise ValueError(f"expected shape {(2, n, n)}, got {values.shape}")
        if check and not np.isfinite(values).all():
            raise ValueError("vector field contains non-finite samples")
        self.grid = grid
        self.values = values

    @property
    def x(self) -> np.ndarray:
        return self.values[0]

    @property
    def y(self) -> np.ndarray:
        return self.values[1]

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.values.copy(), check=False)

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.values[0] ** 2 + self.values[1] ** 2)

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros((2, grid.resolution, grid.resolution)), check=False)


def _require_same_grid(a, b):
    if a.grid is not b.grid and a.grid != b.grid:
        raise ValueError("fields live on different grids")


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; zero mode annihilated, so components have zero mean."""
    fh = np.fft.fft2(f.values)
    gx = np.fft.ifft2(f.grid._ikx * fh).real
    gy = np.fft.ifft2(f.grid._iky * fh).real
    return VectorField(f.grid, np.stack([gx, gy]), check=False)


def divergence(w: VectorField) -> ScalarField:
    wxh = np.fft.fft2(w.values[0])
    wyh = np.fft.fft2(w.values[1])
    d = np.fft.ifft2(w.grid._ikx * wxh + w.grid._iky * wyh).real
    return ScalarField(w.grid, d, check=False)


def curl2d(w: VectorField) -> ScalarField:
    """Scalar curl d2(w1) - d1(w2), i.e. the perp-divergence of w."""
    wxh = np.fft.fft2(w.values[0])
    wyh = np.fft.fft2(w.values[1])
    c = np.fft.ifft2(w.grid._iky * wxh - w.grid._ikx * wyh).real
    return ScalarField(w.grid, c, check=False)


def perp_gradient(f: ScalarField) -> VectorField:
    """Rotated gradient (d2 f, -d1 f)."""
    fh = np.fft.fft2(f.values)
    gx = np.fft.ifft2(f.grid._iky * fh).real
    gy = -np.fft.ifft2(f.grid._ikx * fh).real
    return VectorField(f.grid, np.stack([gx, gy]), check=False)


def laplacian(f: ScalarField) -> ScalarField:
    fh = np.fft.fft2(f.values)
    out = np.fft.ifft2(-f.grid._k_squared * fh).real
    return ScalarField(f.grid, out, check=False)


def dealias(field):
    """Project a field onto the 2/3-rule band (|m| <= N//3 per axis)."""
    g = field.grid
    if isinstance(field, ScalarField):
        fh = np.fft.fft2(field.values)
        fh[g._out_of_band] = 0.0
        return ScalarField(g, np.fft.ifft2(fh).real, check=False)
    out = np.empty_like(field.values)
    for i in (0, 1):
        fh = np.fft.fft2(field.values[i])
        fh[g._out_of_band] = 0.0
        out[i] = np.fft.ifft2(fh).real
    return VectorField(g, out, check=False)


def product_scalar_vector(f: ScalarField, w: VectorField) -> VectorField:
    """Pointwise f*w with the result projected onto the dealias band."""
    _require_same_grid(f, w)
    g = f.grid
    out = np.empty_like(w.values)
    for i in (0, 1):
        ph = np.fft.fft2(f.values * w.values[i])
        ph[g._out_of_band] = 0.0
        out[i] = np.fft.ifft2(ph).real
    return VectorField(g, out, check=False)


def product_dot(w1: VectorField, w2: VectorField) -> ScalarField:
    """Dealiased pointwise dot product of two vector fields."""
    _require_same_grid(w1, w2)
    g = w1.grid
    ph = np.fft.fft2(w1.values[0] * w2.values[0] + w1.values[1] * w2.values[1])
    ph[g._out_of_band] = 0.0
    return ScalarField(g, np.fft.ifft2(ph).real, check=False)


def spectral_power(zh: np.ndarray) -> np.ndarray:
    """|zh|^2 elementwise, without the square root that np.abs takes."""
    return zh.real ** 2 + zh.imag ** 2


def power_sum(zh: np.ndarray) -> float:
    """Sum of |zh|^2 over a C-contiguous spectrum.

    Summed as the squares of the interleaved real and imaginary parts, in
    one pass and without calling into a (possibly multi-threaded) BLAS.
    """
    r = zh.view(np.float64)
    return float(np.einsum("ij,ij->", r, r))


def lp_norm(f, p) -> float:
    """L^p norm by uniform Riemann sum; p in [1, inf].

    Vector fields are measured through the pointwise Euclidean magnitude.
    """
    if not (p == np.inf or p >= 1):
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if isinstance(f, VectorField):
        vals = f.magnitude()
    else:
        vals = np.abs(f.values)
    if p == np.inf:
        return float(vals.max())
    if p == 2:
        return float(np.sqrt((vals ** 2).sum() * f.grid.cell_area))
    return float(((vals ** p).sum() * f.grid.cell_area) ** (1.0 / p))
