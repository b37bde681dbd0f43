import random

import numpy as np
import pytest

from chemoflux import (ChemistryParams, Grid, InitialDataRecipe, StepperConfig,
                       build_initial_data, lp_norm, mollify, run)
from sample_fields import (band_limited_field, band_limited_gradient,
                           constant_field, spectral_gradient)
from oracles import curl2d, project_curl_free


class TestRecipes:
    def test_zero_amplitude_bump_is_equilibrium(self, grid64):
        recipe = InitialDataRecipe(kind="smooth_bump", amplitude=0.0)
        u0, phi0, summary = build_initial_data(recipe, grid64)
        assert np.all(u0 == 1.0)
        assert np.all(phi0 == 0.0)
        assert summary.theta0 == 0.0

    def test_disk_theta0_is_amplitude_sq_times_area(self, grid64):
        a, r = 0.3, 2.5
        recipe = InitialDataRecipe(kind="piecewise_constant_disks", amplitude=a,
                                   disks=((0.5, 0.5, r, 1.0),))
        u0, _, summary = build_initial_data(recipe, grid64)
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
        u0, phi0, summary = build_initial_data(recipe, grid64)
        v0 = spectral_gradient(grid64, phi0)
        assert np.all(u0 == 1.0)
        expected_sq = eps ** 2 * (2 * np.pi / L) ** 2 * L ** 2 / 2
        assert lp_norm(grid64, v0, 2) ** 2 == pytest.approx(expected_sq, rel=1e-12)
        assert summary.M == pytest.approx(lp_norm(grid64, v0, 6), rel=1e-12)

    def test_every_recipe_kind_is_curl_free_and_nonnegative(self, grid64):
        # the drift of a datum is the v of its t=0 node: the march applies
        # the Cole-Hopf substitution to phi0
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
            u0, phi0, summary = build_initial_data(recipe, grid64)
            assert u0.min() >= 0
            v0 = spectral_gradient(grid64, phi0)
            first = run([u0, phi0], StepperConfig(dt=0.1, t_end=0.0),
                        ChemistryParams(), grid=grid64).final_state
            assert lp_norm(grid64, curl2d(grid64, first.v), np.inf) <= 1e-10
            recomputed = (lp_norm(grid64, u0 - 1.0, 2) ** 2
                          + lp_norm(grid64, v0, 2) ** 2)
            assert summary.theta0 == pytest.approx(recomputed, rel=1e-12, abs=1e-300)
            assert summary.theta0 <= summary.theta0_raw + 1e-15

    def test_randomized_disks_deterministic_in_seed(self, grid64):
        recipe = InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.2,
                                   random_disks=3, seed=42)
        u_a, _, _ = build_initial_data(recipe, grid64)
        u_b, _, _ = build_initial_data(recipe, grid64)
        np.testing.assert_array_equal(u_a, u_b)
        other = build_initial_data(
            InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.2,
                              random_disks=3, seed=43), grid64)[0]
        assert np.abs(other - u_a).max() > 0

    def test_random_disks_follow_the_documented_draws(self, grid64):
        # per disk: cx, then cy, then the radius as a fraction of L, from
        # random.Random(seed), with weights +1, -1, +1
        L = grid64.side_length
        rng = random.Random(5)
        disks = []
        for weight in (1.0, -1.0, 1.0):
            cx = rng.uniform(0.2, 0.8)
            cy = rng.uniform(0.2, 0.8)
            disks.append((cx, cy, rng.uniform(0.03, 0.08) * L, weight))
        drawn = build_initial_data(InitialDataRecipe(
            amplitude=0.2, random_disks=3, seed=5), grid64)[0]
        explicit = build_initial_data(InitialDataRecipe(
            amplitude=0.2, disks=tuple(disks)), grid64)[0]
        assert set(np.unique(drawn)) >= {0.8, 1.0, 1.2}
        np.testing.assert_array_equal(drawn, explicit)

    @pytest.mark.parametrize("modes,count", [
        ((), 3),                      # mollify u0: kernel, u0 and back
        (((1, 0, 1.0, 0.0),), 7),     # + the potential and back, grad(phi0) 2
    ])
    def test_transforms_of_a_mollified_build(self, grid64, monkeypatch, modes,
                                             count):
        # a zero phi0 takes no transform, and u0 and phi0 share one kernel
        # spectrum
        calls = [0]
        for name in ("rfft2", "irfft2"):
            def counting(*args, _real=getattr(np.fft, name), **kwargs):
                calls[0] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counting)
        recipe = InitialDataRecipe(amplitude=0.2, delta=2 * grid64.spacing,
                                   disks=((0.5, 0.5, 3.0, 1.0),),
                                   potential_modes=modes)
        _, phi0, summary = build_initial_data(recipe, grid64)
        assert calls[0] == count
        assert (summary.M > 0) == bool(modes) and phi0.any() == bool(modes)

    def test_rejects_p0_at_most_four(self):
        with pytest.raises(ValueError):
            InitialDataRecipe(kind="smooth_bump", p0=4.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialDataRecipe(kind="checkerboard")


def _stripe(grid, amplitude=1.0, start=0.3, width=0.3):
    X, _ = grid.coordinates()
    frac = X / grid.side_length
    return amplitude * (((frac - start) % 1.0) < width)


class TestMollify:
    def test_constant_fixed_point(self, grid64):
        f = constant_field(grid64, 2.5)
        for delta in (grid64.spacing, 1.0, 3.0):
            out = mollify(grid64, f, delta)
            assert np.abs(out - 2.5).max() <= 1e-13

    def test_mean_preserved(self, grid64):
        f = band_limited_field(grid64, seed=13, amplitude=2.0)
        out = mollify(grid64, f, 1.3)
        assert abs(out.mean() - f.mean()) <= 1e-12

    def test_range_bounds(self, grid64):
        f = _stripe(grid64, amplitude=5.0)
        out = mollify(grid64, f, 2.0)
        assert out.min() >= f.min() - 1e-12
        assert out.max() <= f.max() + 1e-12

    def test_stripe_distance_vanishes_monotonically(self):
        # deltas stay above the spacing so the kernel never degenerates
        grid = Grid(16 * np.pi, 128)
        f = _stripe(grid)
        deltas = [4.0, 2.0, 1.0, 0.5]
        dists = [lp_norm(grid, mollify(grid, f, d) - f, 2) for d in deltas]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.35 * dists[0]

    def test_lp_contraction(self, grid64):
        f = _stripe(grid64, amplitude=3.0)
        for p in (2, 4, 6, np.inf):
            for delta in (0.5, 1.5):
                assert (lp_norm(grid64, mollify(grid64, f, delta), p)
                        <= lp_norm(grid64, f, p) + 1e-12)

    def test_gradient_sup_monotone_in_delta(self, grid64):
        # wider kernels smooth harder: sup |grad| nonincreasing in delta
        f = _stripe(grid64)
        sups = [lp_norm(grid64, spectral_gradient(grid64, mollify(grid64, f, d)),
                        np.inf)
                for d in (4.0, 2.0, 1.0, 0.5)]  # shrinking widths
        assert all(wide <= narrow + 1e-12
                   for wide, narrow in zip(sups, sups[1:]))

    def test_commutes_with_gradient(self, grid64):
        phi = band_limited_field(grid64, seed=17)
        delta = 1.1
        a = mollify(grid64, spectral_gradient(grid64, phi), delta)
        b = spectral_gradient(grid64, mollify(grid64, phi, delta))
        assert a.shape == (2,) + grid64.shape
        assert np.abs(a - b).max() <= 1e-12

    def test_rejects_wide_kernel(self, grid64):
        f = constant_field(grid64, 1.0)
        with pytest.raises(ValueError):
            mollify(grid64, f, grid64.side_length / 4 + 0.1)

    def test_rejects_nonpositive_delta(self, grid64):
        with pytest.raises(ValueError):
            mollify(grid64, constant_field(grid64, 1.0), 0.0)


class TestProjectCurlFree:
    def test_identity_on_gradients(self, grid64):
        w = band_limited_gradient(grid64, seed=23)
        out = project_curl_free(grid64, w)
        assert np.abs(out - w).max() <= 1e-12

    def test_annihilates_pure_curl_part(self, grid64):
        L = grid64.side_length
        _, Y = grid64.coordinates()
        w = np.stack([np.sin(2 * np.pi * Y / L), np.zeros_like(Y)])
        out = project_curl_free(grid64, w)
        assert np.abs(out).max() <= 1e-13

    def test_idempotent_and_mean_preserving(self, grid64):
        rng = np.random.default_rng(5)
        w = np.stack([band_limited_field(grid64, 31) + 0.7,
                      band_limited_field(grid64, 32) - 0.2])
        once = project_curl_free(grid64, w)
        twice = project_curl_free(grid64, once)
        assert np.abs(once - twice).max() <= 1e-12
        assert abs(once[0].mean() - w[0].mean()) <= 1e-13
        assert abs(once[1].mean() - w[1].mean()) <= 1e-13
        assert lp_norm(grid64, curl2d(grid64, once), np.inf) <= 1e-12
