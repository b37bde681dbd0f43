"""The Cole-Hopf link v = -(1/mu) grad(ln c) between the chemical c and the
drift v, which removes the logarithmic singularity of the sensitivity.
`drift` is the one computation of v; `forward_transform` stays only as a
boundary that the benchmark traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, ParameterError

# at or below this value the chemical is extinct: ln c would not be finite
C_FLOOR = 1e-300


@dataclass(frozen=True)
class ChemistryParams:
    """Transport strength chi >= 0 (0 decouples u into the heat equation)
    and degradation rate mu > 0."""

    chi: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if self.chi < 0:
            raise ParameterError("chi", f"must be nonnegative, got {self.chi}")
        if self.mu <= 0:
            raise ParameterError("mu", f"must be positive, got {self.mu}")


def drift(grid: Grid, sh: np.ndarray, mu: float) -> np.ndarray:
    """Samples of v = -(1/mu) grad(s), a (2, N, N) array, from the half
    spectrum sh of s = ln c."""
    return grid._gradient((-1.0 / mu) * sh)


def forward_transform(grid: Grid, c: np.ndarray,
                      params: ChemistryParams) -> np.ndarray:
    """v = -(1/mu) * grad(ln c) from the samples c; rejects fields at or
    below the extinction floor."""
    cmin = c.min()
    if cmin <= C_FLOOR:
        i, j = np.unravel_index(int(c.argmin()), c.shape)
        raise ValueError(
            f"chemical concentration {cmin} at cell ({i}, {j}) is at or below "
            f"the floor {C_FLOOR}; ln c is not representable")
    return drift(grid, np.fft.rfft2(np.log(c)), params.mu)
