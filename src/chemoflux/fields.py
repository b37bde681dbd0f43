"""Periodic 2D fields and spectral operators on the torus [0, L)^2.

A field is a float64 array of samples on the `Grid`: N x N for a scalar and
(2, N, N) for a vector, x component first.  Spectra are half spectra,
``np.fft.rfft2``'s N x (N/2 + 1) layout with y along the rows; the solver
keeps the compact dealias band of `band_rfft2`, which ``np.fft.irfft2(zh,
s=(N, N))`` inverts as well.  `Grid`'s tables span that band's a + 1
columns, a = (N-1)//3 by `band_edge`, so every spectrum they meet is a band
spectrum.  `Grid` holds no sample coordinates: the cell centers along an
axis are ``arange(N) * spacing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ParameterError(ValueError):
    """A value outside its range; ``name`` is the argument that holds it."""

    def __init__(self, name: str, message: str):
        super().__init__(f"{name} {message}")
        self.name = name


@dataclass(frozen=True)
class Grid:
    """Torus geometry and wavenumber tables: period ``side_length``, finite
    and positive, and ``resolution`` samples per axis, an even integer of at
    least 8."""

    side_length: float = 16 * np.pi
    resolution: int = 256

    def __post_init__(self):
        if not math.isfinite(self.side_length):
            raise ParameterError("side_length",
                                 f"must be finite, got {self.side_length}")
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

    # separable derivative tables over the dealias band: a (1, a + 1) row in
    # x and an (N, 1) column in y, whose rows a+1..N-a-1, y's Nyquist row
    # among them, meet only the band's zeros
    @cached_property
    def _kx_deriv(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.rfftfreq(self.resolution, d=self.spacing)
        return k[None, :band_edge(self.resolution) + 1]

    @cached_property
    def _ky_deriv(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.resolution, d=self.spacing)[:, None]

    @cached_property
    def _ikx(self) -> np.ndarray:
        return 1j * self._kx_deriv

    @cached_property
    def _iky(self) -> np.ndarray:
        return 1j * self._ky_deriv

    @cached_property
    def _k_squared(self) -> np.ndarray:
        """-1 times the Laplacian's symbol on the band."""
        return self._kx_deriv ** 2 + self._ky_deriv ** 2

    @cached_property
    def _column_weight(self) -> np.ndarray:
        """Parseval weight of each band column: 1 on column 0, else 2, since the
        band has no Nyquist column."""
        return np.array([1.0] + [2.0] * band_edge(self.resolution))

    @property
    def _parseval(self) -> float:
        """cell_area / N^2, which turns a Parseval sum of |f_hat|^2 into
        ||f||_2^2."""
        return self.cell_area / self.resolution ** 2

    def power_total(self, power: np.ndarray) -> float:
        """||f||_2^2 of the field whose band power |f_hat|^2 is ``power``."""
        return self._parseval * float(power.sum(axis=0) @ self._column_weight)

    def gradient_power(self, power: np.ndarray) -> float:
        """||grad f||_2^2 of the field whose band power |f_hat|^2 is ``power``."""
        w = self._column_weight
        return self._parseval * float(power.sum(axis=0) @ (w * self._kx_deriv[0] ** 2)
                                      + (power @ w) @ self._ky_deriv[:, 0] ** 2)

    def _gradient(self, zh: np.ndarray) -> np.ndarray:
        """Samples of grad(z), a (2, N, N) array, from z's band spectrum zh."""
        # a component at a time: irfft2 ignores out=, and a stack would hold
        # both components beside the result
        out = np.empty((2,) + self.shape)
        out[0] = np.fft.irfft2(self._ikx * zh, s=self.shape)
        out[1] = np.fft.irfft2(self._iky * zh, s=self.shape)
        return out


def band_edge(n: int) -> int:
    """The top index a = (n - 1)//3 of the 2/3 dealias band on an n x n grid:
    its modes are those with |kx|, |ky| <= a in units of 2 pi/L."""
    return (n - 1) // 3


def band_rfft2(x: np.ndarray) -> np.ndarray:
    """The compact dealias band of the half spectrum of real N x N samples x:
    the columns 0..a, a = (N-1)//3 by `band_edge`, of ``np.fft.rfft2(x)`` with
    the rows a+1..N-a-1 zeroed.  No product of two band fields aliases into
    the band."""
    n = x.shape[0]
    a = band_edge(n)
    # a given out array spares NumPy a second full-width one
    zh = np.fft.rfft2(x, out=np.empty((n, n // 2 + 1), complex))[:, :a + 1].copy()
    zh[a + 1:n - a] = 0.0
    return zh


def resample(x: np.ndarray, n: int) -> np.ndarray:
    """The samples x, N x N or (2, N, N), on an n x n grid of the same torus:
    the trigonometric polynomial of x's modes in the dealias band of the
    coarser grid, so zero-padding to go up and truncation to go down; x
    itself at n = N."""
    N = x.shape[-1]
    if n == N:
        return x
    a = band_edge(min(n, N))
    xh = np.fft.rfft2(x, norm="forward")   # the coefficients, whatever N
    zh = np.zeros(x.shape[:-2] + (n, n // 2 + 1), complex)
    zh[..., :a + 1, :a + 1] = xh[..., :a + 1, :a + 1]
    zh[..., -a:, :a + 1] = xh[..., -a:, :a + 1]
    return np.fft.irfft2(zh, s=(n, n), norm="forward")


def spectral_power(zh: np.ndarray) -> np.ndarray:
    """|zh|^2 elementwise, without the square root that np.abs takes."""
    return zh.real ** 2 + zh.imag ** 2


def lp_norm(grid: Grid, x: np.ndarray, p) -> float:
    """L^p norm, p >= 1, of the samples x by uniform Riemann sum of |x|^p,
    one formula for every p: an N x N scalar through |x|, a (2, N, N) vector
    through its pointwise Euclidean magnitude."""
    comps = x if x.ndim == 3 else (x,)
    vals = comps[0] * comps[0]
    for c in comps[1:]:
        vals += c * c
    vals **= 0.5 * p
    return float((vals.sum() * grid.cell_area) ** (1.0 / p))
