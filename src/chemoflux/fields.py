"""Periodic 2D fields and spectral operators on the torus [0, L)^2.

All differential operators act in Fourier space on a uniform N x N grid.
The unbounded plane is truncated to a large periodic box; solutions of
interest decay to a constant state, so periodic images interact weakly
when L is large.  Conventions:

* every field is real, so spectra are half spectra: ``np.fft.rfft2`` of an
  N x N array is N x (N/2 + 1), with y along the full first axis (rows, FFT
  index order) and x along the halved last axis (columns m = 0..N/2); the
  way back is ``np.fft.irfft2(zh, s=(N, N))``,
* wavenumbers are 2*pi*m/L,
* the Nyquist mode is zeroed in odd (first-derivative) operators, both the
  x-Nyquist column and the y-Nyquist row, so that real fields stay real and
  the operators are antisymmetric,
* a Parseval sum over a half spectrum weights columns 1..N/2-1 twice, for
  their mirror images in the dropped half, and columns 0 and N/2 once,
* quadratic products are dealiased with the 2/3 rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ParameterError(ValueError):
    """A constructor argument outside its range; ``name`` is the argument."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name} {message}")
        self.name = name


@dataclass(frozen=True)
class Grid:
    """Torus geometry and half-spectrum wavenumber tables.

    side_length is the period in both directions; resolution is the number
    of samples per axis (even, at least 8).  The spectral tables have the
    N x (N/2 + 1) layout of ``np.fft.rfft2``: x-wavenumbers run along the
    halved last axis and y-wavenumbers along the full first axis.
    """

    side_length: float = 16 * np.pi
    resolution: int = 256

    def __post_init__(self):
        if self.side_length <= 0:
            raise ParameterError("side_length",
                                 f"must be positive, got {self.side_length}")
        n = self.resolution
        if n < 8 or n % 2 != 0:
            raise ParameterError("resolution",
                                 f"must be an even integer >= 8, got {n}")

    @property
    def spacing(self) -> float:
        return self.side_length / self.resolution

    @property
    def cell_area(self) -> float:
        return self.spacing ** 2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.resolution, self.resolution)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Per-axis table 2*pi*m/L, FFT index order (length N)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.resolution, d=self.spacing)

    @cached_property
    def _kx(self) -> np.ndarray:
        """x-wavenumbers of the half-spectrum columns, m = 0..N/2."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.resolution, d=self.spacing)

    # Derivative tables are separable, so they are kept as broadcastable
    # (1, N/2 + 1) rows (x varies along columns) and (N, 1) columns (y along
    # rows); the Nyquist entry has no sign partner and is zeroed.
    @cached_property
    def _kx_deriv(self) -> np.ndarray:
        k = self._kx.copy()
        k[-1] = 0.0
        return k[None, :]

    @cached_property
    def _ky_deriv(self) -> np.ndarray:
        k = self.wavenumbers.copy()
        k[self.resolution // 2] = 0.0
        return k[:, None]

    @cached_property
    def _ikx(self) -> np.ndarray:
        return 1j * self._kx_deriv

    @cached_property
    def _iky(self) -> np.ndarray:
        return 1j * self._ky_deriv

    @cached_property
    def _k_squared(self) -> np.ndarray:
        return self._kx[None, :] ** 2 + self.wavenumbers[:, None] ** 2

    @cached_property
    def _out_of_band(self) -> np.ndarray:
        """Modes outside the square 2/3-rule band |m| <= N//3 on each axis."""
        n = self.resolution
        keep_y = np.abs(np.fft.fftfreq(n) * n) <= n // 3
        keep_x = np.arange(n // 2 + 1) <= n // 3
        return ~(keep_x[None, :] & keep_y[:, None])

    @cached_property
    def _column_weight(self) -> np.ndarray:
        """Parseval weight of each half-spectrum column: 1 on 0 and N/2, else 2."""
        w = np.full(self.resolution // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    def power_total(self, power: np.ndarray) -> float:
        """Weighted sum of a half-spectrum ``power`` = |f_hat|^2.

        The result times cell_area / N^2 is ||f||_2^2 by Parseval.
        """
        return float(power.sum(axis=0) @ self._column_weight)

    def gradient_power(self, power: np.ndarray) -> float:
        """Weighted sum of (kx^2 + ky^2) * power, with the derivative wavenumbers.

        ``power`` is |f_hat|^2 of some field f over its half spectrum; the
        result times cell_area / N^2 is ||grad f||_2^2 by Parseval.
        """
        w = self._column_weight
        kx2 = self._kx_deriv[0] ** 2
        ky2 = self._ky_deriv[:, 0] ** 2
        return float(power.sum(axis=0) @ (w * kx2) + (power @ w) @ ky2)

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


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; zero mode annihilated, so components have zero mean."""
    g = f.grid
    fh = np.fft.rfft2(f.values)
    gx = np.fft.irfft2(g._ikx * fh, s=g.shape)
    gy = np.fft.irfft2(g._iky * fh, s=g.shape)
    return VectorField(g, np.stack([gx, gy]), check=False)


def curl2d(w: VectorField) -> ScalarField:
    """Scalar curl d2(w1) - d1(w2), i.e. the perp-divergence of w."""
    g = w.grid
    wxh = np.fft.rfft2(w.values[0])
    wyh = np.fft.rfft2(w.values[1])
    c = np.fft.irfft2(g._iky * wxh - g._ikx * wyh, s=g.shape)
    return ScalarField(g, c, check=False)


def spectral_power(zh: np.ndarray) -> np.ndarray:
    """|zh|^2 elementwise, without the square root that np.abs takes."""
    return zh.real ** 2 + zh.imag ** 2


def power_sum(zh: np.ndarray) -> float:
    """Parseval sum of |zh|^2 over a C-contiguous half spectrum.

    Columns 1..N/2-1 count twice and the first and last columns (0 and N/2)
    once.  Summed as the squares of the interleaved real and imaginary
    parts, in one pass and without calling into a (possibly multi-threaded)
    BLAS.
    """
    r = zh.view(np.float64)
    col = np.einsum("ij,ij->j", r, r)   # per real and per imaginary column
    return float(2.0 * col.sum() - col[:2].sum() - col[-2:].sum())


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
