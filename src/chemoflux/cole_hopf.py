"""Transformation layer between the chemical field c and the drift field v.

The substitution v = -(1/mu) * grad(ln c) removes the logarithmic
singularity of the chemotactic sensitivity and gives v a spatial structure.
A datum's potential phi0 fixes both forms at once: ln c0 = -mu*phi0 and
v0 = grad(phi0).  The chemical ODE c_t = -mu*u*c itself is integrated in
``evolve`` on ln c, where the exact exponential update is a subtraction and
positivity is structural.  `drift` is the one computation of v from the
half spectrum of s = ln c: the march's start calls it in both modes and
the original-mode stepper at every node.  `forward_transform`, which maps
the N x N samples of c to the (2, N, N) samples of v through `drift` after
a check of the extinction floor, stays only as a boundary that the
benchmark traces: no study calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, ParameterError

# Below this value the chemical is treated as extinct: taking ln c and
# further exponential decay would underflow to non-finite fields.
C_FLOOR = 1e-300


@dataclass(frozen=True)
class ChemistryParams:
    """Physical coefficients: transport strength chi and degradation rate mu.

    chi = 0 is admitted as the decoupled heat-equation limit used by the
    verification studies; the degradation rate mu must stay positive.
    """

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
