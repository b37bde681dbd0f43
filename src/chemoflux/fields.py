"""Periodic 2D fields and spectral operators on the torus [0, L)^2.

A field is a float64 array of samples on the `Grid`: N x N for a scalar and
(2, N, N) for a vector, x component first.  Spectra are half spectra,
``np.fft.rfft2``'s N x (N/2 + 1) layout with y along the rows; the solver
keeps the compact dealias band of `band_rfft2`, which ``np.fft.irfft2(zh,
s=(N, N))`` inverts as well.  `Grid`'s tables are full width, and each use
slices them to the width of the spectrum it meets.  `Grid` holds no sample
coordinates: the cell centers along an axis are ``arange(N) * spacing``.
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
    """Torus geometry and wavenumber tables: period ``side_length`` and
    ``resolution`` samples per axis, an even integer of at least 8."""

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

    # separable derivative tables: a (1, N/2 + 1) row in x and an (N, 1)
    # column in y; the Nyquist entry has no sign partner and is zeroed
    @cached_property
    def _kx_deriv(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.rfftfreq(self.resolution, d=self.spacing)
        k[-1] = 0.0
        return k[None, :]

    @cached_property
    def _ky_deriv(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.resolution, d=self.spacing)
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
        """-1 times the Laplacian's symbol, for compact spectra only: they have
        no Nyquist mode, so the derivative tables serve."""
        return self._kx_deriv ** 2 + self._ky_deriv ** 2

    @cached_property
    def _column_weight(self) -> np.ndarray:
        """Parseval weight of each half-spectrum column: 1 on 0 and N/2, else 2."""
        w = np.full(self.resolution // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    def power_total(self, power: np.ndarray) -> float:
        """Parseval sum of a half-spectrum ``power`` = |f_hat|^2, full or
        compact: times cell_area / N^2 it is ||f||_2^2."""
        return float(power.sum(axis=0) @ self._column_weight[:power.shape[1]])

    def gradient_power(self, power: np.ndarray) -> float:
        """Parseval sum of (kx^2 + ky^2) |f_hat|^2 for a half-spectrum
        ``power``, full or compact: times cell_area / N^2 it is ||grad f||_2^2."""
        w = self._column_weight[:power.shape[1]]
        kx2 = self._kx_deriv[0, :power.shape[1]] ** 2
        ky2 = self._ky_deriv[:, 0] ** 2
        return float(power.sum(axis=0) @ (w * kx2) + (power @ w) @ ky2)

    def _gradient(self, zh: np.ndarray) -> np.ndarray:
        """Samples of grad(z), a (2, N, N) array, from z's half spectrum zh,
        full or compact."""
        # a component at a time: irfft2 ignores out=, and a stack would hold
        # both components beside the result
        out = np.empty((2,) + self.shape)
        out[0] = np.fft.irfft2(self._ikx[:, :zh.shape[1]] * zh, s=self.shape)
        out[1] = np.fft.irfft2(self._iky * zh, s=self.shape)
        return out


def band_rfft2(x: np.ndarray) -> np.ndarray:
    """The compact dealias band of the half spectrum of real N x N samples x:
    the columns 0..a, a = (N-1)//3, of ``np.fft.rfft2(x)`` with the rows
    a+1..N-a-1 zeroed.  No product of two band fields aliases into the band."""
    n = x.shape[0]
    a = (n - 1) // 3
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
    a = (min(n, N) - 1) // 3
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
