import numpy as np
import pytest

from chemoflux import (ChemistryParams, Grid, RunOutcome, StepperConfig,
                       forward_transform, lp_norm, run)
from chemoflux.cole_hopf import C_FLOOR
from sample_fields import band_limited_field, constant_field
from oracles import curl2d


class TestChemistryParams:
    def test_defaults_consistent(self):
        p = ChemistryParams()
        assert p.chi == p.mu == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ChemistryParams(chi=1.0, mu=-1.0)


class TestForwardTransform:
    def test_constant_chemical_gives_zero_drift(self, grid64):
        v = forward_transform(grid64, constant_field(grid64, 4.2), ChemistryParams())
        assert np.abs(v).max() <= 1e-13

    def test_analytic_log_gradient(self):
        grid = Grid(2 * np.pi * 4, 64)
        L = grid.side_length
        X, _ = grid.coordinates()
        c = np.exp(np.sin(2 * np.pi * X / L))
        v = forward_transform(grid, c, ChemistryParams())
        expected = -(2 * np.pi / L) * np.cos(2 * np.pi * X / L)
        assert v.shape == (2, 64, 64)
        assert np.abs(v[0] - expected).max() <= 1e-12
        assert np.abs(v[1]).max() <= 1e-13

    def test_linear_in_inverse_mu(self):
        grid = Grid(2 * np.pi, 32)
        c = np.exp(band_limited_field(grid, 3))
        v1 = forward_transform(grid, c, ChemistryParams())
        v2 = forward_transform(grid, c, ChemistryParams(chi=2.0, mu=2.0))
        assert np.abs(v2 - 0.5 * v1).max() <= 1e-13

    def test_output_is_curl_free(self, grid64):
        c = np.exp(band_limited_field(grid64, 8))
        v = forward_transform(grid64, c, ChemistryParams())
        assert lp_norm(grid64, curl2d(grid64, v), np.inf) <= 1e-12

    def test_rejects_floor_with_location(self, grid32):
        vals = np.ones((32, 32))
        vals[9, 11] = C_FLOOR / 2
        with pytest.raises(ValueError, match=r"\(9, 11\)"):
            forward_transform(grid32, vals, ChemistryParams())


class TestCStep:
    """The chemical update c_t = -mu u c as run() takes it in original mode,
    from c0 = exp(-mu phi0)."""

    def test_zero_density_leaves_chemical(self, grid32):
        f = band_limited_field(grid32, 1)
        c0 = np.exp(0.3 * f)
        kept = []
        traj = run([constant_field(grid32, 0.0), -0.3 * f],
                   StepperConfig(dt=0.1, t_end=0.7), ChemistryParams(),
                   mode="original", grid=grid32,
                   recorders=(lambda node: kept.append(np.exp(node.s)),))
        np.testing.assert_array_equal(np.exp(traj.final_state.s), kept[0])
        assert np.abs(kept[0] - c0).max() <= 1e-13

    def test_matches_closed_form_at_second_order(self):
        # chi = 0: u = 1 + eps cos(kx) exp(-k^2 t) solves the heat equation,
        # so c(T) = c0 exp(-mu (T + eps cos(kx) (1 - exp(-k^2 T)) / k^2))
        grid = Grid(2 * np.pi, 32)
        mu, eps, T = 1.3, 0.4, 1.0
        X, Y = grid.coordinates()
        k = 1.0
        u0 = 1.0 + eps * np.cos(k * X)
        c0 = np.exp(0.2 * np.sin(Y))
        phi0 = -0.2 * np.sin(Y) / mu
        exact = c0 * np.exp(
            -mu * (T + eps * np.cos(k * X) * (1 - np.exp(-k * k * T)) / k ** 2))
        params = ChemistryParams(chi=0.0, mu=mu)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj = run([u0, phi0], StepperConfig(dt=dt, t_end=T), params,
                       mode="original", grid=grid)
            errs.append(np.abs(np.exp(traj.final_state.s) - exact).max())
            assert errs[-1] <= 0.01 * dt * dt
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_positivity_and_monotonicity(self, grid32):
        # u > 0 makes c pointwise nonincreasing at every step
        u0 = 1.0 + 0.3 * band_limited_field(grid32, 9) ** 2
        kept = []
        traj = run([u0, constant_field(grid32, -np.log(1e-12))],   # c0 = 1e-12
                   StepperConfig(dt=0.1, t_end=5.0, record_every=1),
                   ChemistryParams(), mode="original", grid=grid32,
                   recorders=(lambda node: kept.append((node.u, np.exp(node.s))),))
        assert traj.outcome is RunOutcome.COMPLETED and len(kept) == 51
        for (u_prev, c_prev), (u, c) in zip(kept, kept[1:]):
            assert (u > 0).all()
            assert (c > 0).all()
            assert (c <= c_prev).all()

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            StepperConfig(dt=-0.1, t_end=1.0)
