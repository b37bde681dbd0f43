import numpy as np
import pytest

from chemoflux import (Grid, InitialDataRecipe, ScalarField, VectorField,
                       build_initial_data, compute_eta0, curl2d, gradient,
                       lp_norm, mollify, potential_of)
from chemoflux.initial_data import mollify_vector
from sample_fields import band_limited_field, band_limited_gradient
from oracles import project_curl_free


class TestEta0:
    def test_reference_values(self):
        assert compute_eta0(6.0) == pytest.approx(0.25, abs=1e-15)
        assert compute_eta0(8.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_vanishes_at_threshold(self):
        assert 0 < compute_eta0(4.0 + 1e-9) < 1e-9

    def test_stays_below_half(self):
        for p0 in (4.5, 6, 20, 1e6):
            assert 0 < compute_eta0(p0) < 0.5

    def test_rejects_p0_at_most_four(self):
        for p0 in (4.0, 3.0, -1.0):
            with pytest.raises(ValueError):
                compute_eta0(p0)


class TestRecipes:
    def test_zero_amplitude_bump_is_equilibrium(self, grid64):
        recipe = InitialDataRecipe(kind="smooth_bump", amplitude=0.0)
        u0, v0, summary = build_initial_data(recipe, grid64)
        assert np.all(u0.values == 1.0)
        assert np.all(v0.values == 0.0)
        assert summary.theta0 == 0.0

    def test_disk_theta0_is_amplitude_sq_times_area(self, grid64):
        a, r = 0.3, 2.5
        recipe = InitialDataRecipe(kind="piecewise_constant_disks", amplitude=a,
                                   disks=((0.5, 0.5, r, 1.0),))
        u0, v0, summary = build_initial_data(recipe, grid64)
        # oracle: count raster cells inside the disk directly
        X, Y = grid64.coordinates()
        L = grid64.side_length
        dx = X - 0.5 * L - L * np.round((X - 0.5 * L) / L)
        dy = Y - 0.5 * L - L * np.round((Y - 0.5 * L) / L)
        count = int((dx ** 2 + dy ** 2 < r ** 2).sum())
        area = count * grid64.cell_area
        assert summary.theta0 == pytest.approx(a * a * area, rel=1e-12)
        # and the raster area tracks the geometric one at O(h * perimeter)
        assert abs(area - np.pi * r * r) <= 4 * grid64.spacing * 2 * np.pi * r
        assert summary.theta0_raw == summary.theta0  # no mollification here

    def test_negative_density_rejected_with_minimum(self, grid64):
        recipe = InitialDataRecipe(kind="piecewise_constant_disks", amplitude=1.5,
                                   disks=((0.5, 0.5, 2.0, -1.0),))
        with pytest.raises(ValueError, match="min u0 = -0.5"):
            build_initial_data(recipe, grid64)

    def test_potential_mode_norm_closed_form(self, grid64):
        eps = 0.01
        L = grid64.side_length
        recipe = InitialDataRecipe(kind="from_potential", amplitude=eps,
                                   potential_modes=((1, 0, 1.0, 0.0),))
        u0, v0, summary = build_initial_data(recipe, grid64)
        assert np.all(u0.values == 1.0)
        expected_sq = eps ** 2 * (2 * np.pi / L) ** 2 * L ** 2 / 2
        assert lp_norm(v0, 2) ** 2 == pytest.approx(expected_sq, rel=1e-12)
        assert summary.M == pytest.approx(lp_norm(v0, 6), rel=1e-12)

    def test_every_recipe_kind_is_curl_free_and_nonnegative(self, grid64):
        h = grid64.spacing
        recipes = [
            InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.4,
                              delta=2 * h, disks=((0.3, 0.4, 2.0, 1.0),
                                                  (0.7, 0.6, 1.5, -1.0)),
                              potential_modes=((1, 1, 0.5, 0.3),)),
            InitialDataRecipe(kind="piecewise_constant_stripes", amplitude=0.8,
                              delta=h, stripes=((0.2, 0.25, 1.0),)),
            InitialDataRecipe(kind="smooth_bump", amplitude=0.5,
                              bump_sharpness=10.0,
                              potential_modes=((2, 0, 1.0, 0.0),)),
            InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.2,
                              random_disks=4, seed=7),
        ]
        for recipe in recipes:
            u0, v0, summary = build_initial_data(recipe, grid64)
            assert u0.values.min() >= 0
            assert lp_norm(curl2d(v0), np.inf) <= 1e-10
            u_tilde = ScalarField(grid64, u0.values - 1.0, check=False)
            recomputed = lp_norm(u_tilde, 2) ** 2 + lp_norm(v0, 2) ** 2
            assert summary.theta0 == pytest.approx(recomputed, rel=1e-12, abs=1e-300)
            assert summary.theta0 <= summary.theta0_raw + 1e-15

    def test_randomized_disks_deterministic_in_seed(self, grid64):
        recipe = InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.2,
                                   random_disks=3, seed=42)
        u_a, v_a, _ = build_initial_data(recipe, grid64)
        u_b, v_b, _ = build_initial_data(recipe, grid64)
        np.testing.assert_array_equal(u_a.values, u_b.values)
        other = build_initial_data(
            InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.2,
                              random_disks=3, seed=43), grid64)[0]
        assert np.abs(other.values - u_a.values).max() > 0

    def test_rejects_p0_at_most_four(self):
        with pytest.raises(ValueError):
            InitialDataRecipe(kind="smooth_bump", p0=4.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialDataRecipe(kind="checkerboard")


def _stripe(grid, amplitude=1.0, start=0.3, width=0.3):
    X, _ = grid.coordinates()
    frac = X / grid.side_length
    return ScalarField(grid, amplitude * (((frac - start) % 1.0) < width))


class TestMollify:
    def test_constant_fixed_point(self, grid64):
        f = ScalarField.constant(grid64, 2.5)
        for delta in (grid64.spacing, 1.0, 3.0):
            out = mollify(f, delta)
            assert np.abs(out.values - 2.5).max() <= 1e-13

    def test_mean_preserved(self, grid64):
        f = band_limited_field(grid64, seed=13, amplitude=2.0)
        out = mollify(f, 1.3)
        assert abs(out.mean() - f.mean()) <= 1e-12

    def test_range_bounds(self, grid64):
        f = _stripe(grid64, amplitude=5.0)
        out = mollify(f, 2.0)
        assert out.values.min() >= f.values.min() - 1e-12
        assert out.values.max() <= f.values.max() + 1e-12

    def test_stripe_distance_vanishes_monotonically(self):
        # deltas stay above the spacing so the kernel never degenerates
        grid = Grid(16 * np.pi, 128)
        f = _stripe(grid)
        deltas = [4.0, 2.0, 1.0, 0.5]
        dists = [lp_norm(ScalarField(grid, mollify(f, d).values - f.values), 2)
                 for d in deltas]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.35 * dists[0]

    def test_lp_contraction(self, grid64):
        f = _stripe(grid64, amplitude=3.0)
        for p in (2, 4, 6, np.inf):
            for delta in (0.5, 1.5):
                assert lp_norm(mollify(f, delta), p) <= lp_norm(f, p) + 1e-12

    def test_gradient_sup_monotone_in_delta(self, grid64):
        # wider kernels smooth harder: sup |grad| nonincreasing in delta
        f = _stripe(grid64)
        sups = [lp_norm(gradient(mollify(f, d)), np.inf)
                for d in (4.0, 2.0, 1.0, 0.5)]  # shrinking widths
        assert all(wide <= narrow + 1e-12
                   for wide, narrow in zip(sups, sups[1:]))

    def test_commutes_with_gradient(self, grid64):
        phi = band_limited_field(grid64, seed=17)
        delta = 1.1
        a = mollify_vector(gradient(phi), delta)
        b = gradient(mollify(phi, delta))
        assert np.abs(a.values - b.values).max() <= 1e-12

    def test_rejects_wide_kernel(self, grid64):
        f = ScalarField.constant(grid64, 1.0)
        with pytest.raises(ValueError):
            mollify(f, grid64.side_length / 4 + 0.1)

    def test_rejects_nonpositive_delta(self, grid64):
        with pytest.raises(ValueError):
            mollify(ScalarField.constant(grid64, 1.0), 0.0)


class TestProjectCurlFree:
    def test_identity_on_gradients(self, grid64):
        w = band_limited_gradient(grid64, seed=23)
        out = project_curl_free(w)
        assert np.abs(out.values - w.values).max() <= 1e-12

    def test_annihilates_pure_curl_part(self, grid64):
        L = grid64.side_length
        _, Y = grid64.coordinates()
        w = VectorField(grid64, np.stack([np.sin(2 * np.pi * Y / L),
                                          np.zeros_like(Y)]))
        out = project_curl_free(w)
        assert np.abs(out.values).max() <= 1e-13

    def test_idempotent_and_mean_preserving(self, grid64):
        rng = np.random.default_rng(5)
        w = VectorField(grid64, np.stack([
            band_limited_field(grid64, 31).values + 0.7,
            band_limited_field(grid64, 32).values - 0.2]))
        once = project_curl_free(w)
        twice = project_curl_free(once)
        assert np.abs(once.values - twice.values).max() <= 1e-12
        assert abs(once.x.mean() - w.x.mean()) <= 1e-13
        assert abs(once.y.mean() - w.y.mean()) <= 1e-13
        assert lp_norm(curl2d(once), np.inf) <= 1e-12

    def test_potential_inverts_gradient(self, grid64):
        phi = band_limited_field(grid64, seed=40, zero_mean=True)
        recovered = potential_of(gradient(phi))
        assert np.abs(recovered.values - phi.values).max() <= 1e-12
