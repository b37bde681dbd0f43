import numpy as np
import pytest

from chemoflux import (ChemistryParams, Grid, RunOutcome, ScalarField,
                       StepperConfig, curl2d, forward_transform, lp_norm, run)
from chemoflux.cole_hopf import C_FLOOR
from sample_fields import band_limited_field


class TestChemistryParams:
    def test_defaults_consistent(self):
        p = ChemistryParams()
        assert p.chi == p.mu * p.xi == 1.0

    def test_rejects_inconsistent_product(self):
        with pytest.raises(ValueError):
            ChemistryParams(chi=2.0, mu=1.0, xi=1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ChemistryParams(chi=1.0, mu=-1.0, xi=-1.0)


class TestForwardTransform:
    def test_constant_chemical_gives_zero_drift(self, grid64):
        v = forward_transform(ScalarField.constant(grid64, 4.2), ChemistryParams())
        assert np.abs(v.values).max() <= 1e-13

    def test_analytic_log_gradient(self):
        grid = Grid(2 * np.pi * 4, 64)
        L = grid.side_length
        X, _ = grid.coordinates()
        c = ScalarField(grid, np.exp(np.sin(2 * np.pi * X / L)))
        v = forward_transform(c, ChemistryParams())
        expected = -(2 * np.pi / L) * np.cos(2 * np.pi * X / L)
        assert np.abs(v.x - expected).max() <= 1e-12
        assert np.abs(v.y).max() <= 1e-13

    def test_linear_in_inverse_mu(self):
        grid = Grid(2 * np.pi, 32)
        c = ScalarField(grid, np.exp(band_limited_field(grid, 3).values))
        v1 = forward_transform(c, ChemistryParams())
        v2 = forward_transform(c, ChemistryParams(chi=2.0, mu=2.0, xi=1.0))
        assert np.abs(v2.values - 0.5 * v1.values).max() <= 1e-13

    def test_output_is_curl_free(self, grid64):
        c = ScalarField(grid64, np.exp(band_limited_field(grid64, 8).values))
        v = forward_transform(c, ChemistryParams())
        assert lp_norm(curl2d(v), np.inf) <= 1e-12

    def test_rejects_floor_with_location(self, grid32):
        vals = np.ones((32, 32))
        vals[9, 11] = C_FLOOR / 2
        with pytest.raises(ValueError, match=r"\(9, 11\)"):
            forward_transform(ScalarField(grid32, vals), ChemistryParams())


class TestCStep:
    """The chemical update c_t = -mu u c as run() takes it in original mode."""

    def test_zero_density_leaves_chemical(self, grid32):
        c0 = ScalarField(grid32, np.exp(0.3 * band_limited_field(grid32, 1).values))
        kept = []
        traj = run(ScalarField.constant(grid32, 0.0), c0,
                   StepperConfig(dt=0.1, t_end=0.7), ChemistryParams(),
                   recorders=(lambda st, rec: kept.append(st.c),))
        np.testing.assert_array_equal(traj.final_state.c.values, kept[0].values)
        assert np.abs(kept[0].values - c0.values).max() <= 1e-13

    def test_matches_closed_form_at_second_order(self):
        # chi = 0: u = 1 + eps cos(kx) exp(-k^2 t) solves the heat equation,
        # so c(T) = c0 exp(-mu (T + eps cos(kx) (1 - exp(-k^2 T)) / k^2))
        grid = Grid(2 * np.pi, 32)
        mu, eps, T = 1.3, 0.4, 1.0
        X, Y = grid.coordinates()
        k = 1.0
        u0 = ScalarField(grid, 1.0 + eps * np.cos(k * X))
        c0 = ScalarField(grid, np.exp(0.2 * np.sin(Y)))
        exact = c0.values * np.exp(
            -mu * (T + eps * np.cos(k * X) * (1 - np.exp(-k * k * T)) / k ** 2))
        params = ChemistryParams(chi=0.0, mu=mu, xi=0.0)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj = run(u0, c0, StepperConfig(dt=dt, t_end=T), params)
            errs.append(np.abs(traj.final_state.c.values - exact).max())
            assert errs[-1] <= 0.01 * dt * dt
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_positivity_and_monotonicity(self, grid32):
        # u > 0 makes c pointwise nonincreasing at every step
        u0 = ScalarField(grid32, 1.0 + 0.3 * band_limited_field(grid32, 9).values ** 2)
        kept = []
        traj = run(u0, ScalarField.constant(grid32, 1e-12),
                   StepperConfig(dt=0.1, t_end=5.0, record_every=1),
                   ChemistryParams(),
                   recorders=(lambda st, rec: kept.append((st.u, st.c)),))
        assert traj.outcome is RunOutcome.COMPLETED and len(kept) == 51
        for (u_prev, c_prev), (u, c) in zip(kept, kept[1:]):
            assert (u.values > 0).all()
            assert (c.values > 0).all()
            assert (c.values <= c_prev.values).all()

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            StepperConfig(dt=-0.1, t_end=1.0)
