"""The Cole-Hopf link v = -(1/mu) grad(ln c) between the chemical c and the
drift v, which removes the logarithmic singularity of the sensitivity.
`drift` is the one computation of v, from the spectrum of s = ln c; the
march applies it once, at its start, and in original mode halts when c
falls to `C_FLOOR`.
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
        if not self.chi >= 0:   # NaN fails each range check
            raise ParameterError("chi", f"must be nonnegative, got {self.chi}")
        if not self.mu > 0:
            raise ParameterError("mu", f"must be positive, got {self.mu}")


def drift(grid: Grid, sh: np.ndarray, mu: float) -> np.ndarray:
    """Samples of v = -(1/mu) grad(s), a (2, N, N) array, from the band
    spectrum sh of s = ln c (`band_rfft2`)."""
    return grid._gradient((-1.0 / mu) * sh)

