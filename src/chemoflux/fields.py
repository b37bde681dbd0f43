"""Periodic 2D fields and spectral operators on the torus [0, L)^2.

All differential operators act in Fourier space on a uniform N x N grid.
The unbounded plane is truncated to a large periodic box; solutions of
interest decay to a constant state, so periodic images interact weakly
when L is large.  Conventions:

* a field is a plain float64 array of its samples, N x N for a scalar and
  (2, N, N) for a vector (x component first); the geometry lives in the
  `Grid`, which each function that needs it takes beside the array,
* every field is real, so spectra are half spectra: ``np.fft.rfft2`` of an
  N x N array is N x (N/2 + 1), with y along the full first axis (rows, FFT
  index order) and x along the halved last axis (columns m = 0..N/2); the
  way back is ``np.fft.irfft2(zh, s=(N, N))``,
* the solver's spectra are compact: quadratic products are dealiased with
  the 2/3 rule, so `band_rfft2` keeps only the columns 0..a, a = (N-1)//3,
  of the square band, an N x (a + 1) array whose rows a+1..N-a-1 are zero;
  ``irfft2`` zero-pads the missing columns, so the one inverse serves both
  widths (its column pass then works on a + 1 columns).  The data build
  keeps full half spectra, since its data are not band-limited,
* `Grid`'s tables are full width, and each operator slices a table to the
  width of the spectrum it meets, so one table serves both widths,
* wavenumbers are 2*pi*m/L,
* the Nyquist mode is zeroed in odd (first-derivative) operators, both the
  x-Nyquist column and the y-Nyquist row, so that real fields stay real and
  the operators are antisymmetric,
* a Parseval sum over a half spectrum weights columns 1..N/2-1 twice, for
  their mirror images in the dropped half, and columns 0 and N/2 once; a
  compact spectrum has no column N/2.
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
    halved last axis and y-wavenumbers along the full first axis.  A compact
    spectrum (`band_rfft2`) meets a slice of them, their first a + 1 columns.
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

    # Derivative tables are separable, so they are kept as broadcastable
    # (1, N/2 + 1) rows (x varies along columns) and (N, 1) columns (y along
    # rows); the Nyquist entry has no sign partner and is zeroed.
    @cached_property
    def _kx_deriv(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.rfftfreq(self.resolution, d=self.spacing)
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
        """-1 times the Laplacian's symbol.  Only compact spectra meet it, and
        they have no Nyquist mode, so the derivative tables serve."""
        return self._kx_deriv ** 2 + self._ky_deriv ** 2

    @cached_property
    def _column_weight(self) -> np.ndarray:
        """Parseval weight of each half-spectrum column: 1 on 0 and N/2, else 2."""
        w = np.full(self.resolution // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    def power_total(self, power: np.ndarray) -> float:
        """Weighted sum of a half-spectrum ``power`` = |f_hat|^2, full or compact.

        The result times cell_area / N^2 is ||f||_2^2 by Parseval.
        """
        return float(power.sum(axis=0) @ self._column_weight[:power.shape[1]])

    def gradient_power(self, power: np.ndarray) -> float:
        """Weighted sum of (kx^2 + ky^2) * power, with the derivative wavenumbers.

        ``power`` is |f_hat|^2 of some field f over its half spectrum, full
        or compact; the result times cell_area / N^2 is ||grad f||_2^2 by
        Parseval.
        """
        w = self._column_weight[:power.shape[1]]
        kx2 = self._kx_deriv[0, :power.shape[1]] ** 2
        ky2 = self._ky_deriv[:, 0] ** 2
        return float(power.sum(axis=0) @ (w * kx2) + (power @ w) @ ky2)

    def _gradient(self, zh: np.ndarray) -> np.ndarray:
        """Samples of grad(z), a (2, N, N) array, from z's half spectrum zh,
        full or compact."""
        # filled a component at a time: a stack would hold both components
        # beside it, and irfft2 writes into no given array (out= is ignored)
        out = np.empty((2,) + self.shape)
        out[0] = np.fft.irfft2(self._ikx[:, :zh.shape[1]] * zh, s=self.shape)
        out[1] = np.fft.irfft2(self._iky * zh, s=self.shape)
        return out

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center sample coordinates (X, Y), each N x N."""
        x = np.arange(self.resolution) * self.spacing
        return np.meshgrid(x, x, indexing="xy")


def band_rfft2(x: np.ndarray) -> np.ndarray:
    """The compact dealias band of the half spectrum of real N x N samples x.

    The square 2/3-rule band |m| <= a = (N-1)//3, as an N x (a + 1) array:
    the columns 0..a of ``np.fft.rfft2(x)`` with the rows a+1..N-a-1 zeroed.
    With |m| < N/3, no product of two band fields aliases into the band,
    also when 3 divides N.  The transform writes into a fresh full-width
    array, so that NumPy makes no second one.
    """
    n = x.shape[0]
    a = (n - 1) // 3
    zh = np.fft.rfft2(x, out=np.empty((n, n // 2 + 1), complex))[:, :a + 1].copy()
    zh[a + 1:n - a] = 0.0
    return zh


def spectral_power(zh: np.ndarray) -> np.ndarray:
    """|zh|^2 elementwise, without the square root that np.abs takes."""
    return zh.real ** 2 + zh.imag ** 2


def lp_norm(grid: Grid, x: np.ndarray, p) -> float:
    """L^p norm of the samples x by uniform Riemann sum; p in [1, inf].

    x is an N x N scalar or a (2, N, N) vector, which is measured through
    its pointwise Euclidean magnitude.  For p = 2 that is the sum of x*x
    over every sample of every component, one component at a time, with
    NumPy's own reductions: no |x| pass, no magnitude, and no BLAS dot
    product, whose threads could change the order of the sum.
    """
    if not (p == np.inf or p >= 1):
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    vector = x.ndim == 3
    if p == 2:
        comps = x if vector else (x,)
        return float(np.sqrt(sum((c * c).sum() for c in comps) * grid.cell_area))
    vals = np.sqrt(x[0] ** 2 + x[1] ** 2) if vector else np.abs(x)
    if p == np.inf:
        return float(vals.max())
    return float(((vals ** p).sum() * grid.cell_area) ** (1.0 / p))
