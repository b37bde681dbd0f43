import random
import tracemalloc

import numpy as np
import pytest

from chemoflux import (ChemistryParams, Grid, InitialDataRecipe, StepperConfig,
                       build_initial_data, run)
from chemoflux.fields import ParameterError
from chemoflux.initial_data import mollifier_kernel, mollify
from sample_fields import (band_limited_field, band_limited_gradient,
                           constant_field, coordinates, recipes_of_each_kind,
                           spectral_gradient)
from oracles import curl2d, lp_norm, project_curl_free
from oracles import gradient as full_spectrum_gradient


class TestRecipes:
    def test_zero_amplitude_bump_is_equilibrium(self, grid64):
        recipe = InitialDataRecipe(kind="smooth_bump", amplitude=0.0)
        u0, phi0 = build_initial_data(recipe, grid64)
        assert np.all(u0 == 1.0)
        assert np.all(phi0 == 0.0)

    def test_negative_density_rejected_with_minimum(self, grid64):
        recipe = InitialDataRecipe(kind="piecewise_constant_disks", amplitude=1.5,
                                   disks=((0.5, 0.5, 2.0, -1.0),))
        with pytest.raises(ValueError, match="min u0 = -0.5"):
            build_initial_data(recipe, grid64)

    def test_potential_mode_norm_closed_form(self, grid64):
        eps = 0.01
        L = grid64.side_length
        recipe = InitialDataRecipe(amplitude=eps, potential_modes=((1, 0, 1.0, 0.0),))
        u0, phi0 = build_initial_data(recipe, grid64)
        v0 = spectral_gradient(grid64, phi0)
        assert np.all(u0 == 1.0)
        expected_sq = eps ** 2 * (2 * np.pi / L) ** 2 * L ** 2 / 2
        assert lp_norm(grid64, v0, 2) ** 2 == pytest.approx(expected_sq, rel=1e-12)

    def test_every_recipe_kind_is_curl_free_and_nonnegative(self, grid64):
        # the drift of a datum is the v of its t=0 node: the march applies
        # the Cole-Hopf substitution to phi0
        for recipe in recipes_of_each_kind(grid64.spacing):
            u0, phi0 = build_initial_data(recipe, grid64)
            assert u0.min() >= 0
            first = run([u0, phi0], StepperConfig(dt=0.1, t_end=0.0),
                        ChemistryParams(), grid=grid64)
            assert lp_norm(grid64, curl2d(grid64, first.v), np.inf) <= 1e-10

    def test_randomized_disks_deterministic_in_seed(self, grid64):
        recipe = InitialDataRecipe(kind="piecewise_constant_disks", amplitude=0.2,
                                   random_disks=3, seed=42)
        u_a, _ = build_initial_data(recipe, grid64)
        u_b, _ = build_initial_data(recipe, grid64)
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

    @pytest.mark.parametrize("cells,modes,count", [
        (0, (), 2),                      # no kernel: the potential, zero or
        (0, ((1, 0, 1.0, 0.0),), 2),     # not, and back: 2
        (2, (), 5),                      # kernel, u0 and back: 3; the potential,
        (2, ((1, 0, 1.0, 0.0),), 5),     # zero or not, and back: 2
    ], ids=["unmollified", "unmollified-modes", "mollified", "mollified-modes"])
    def test_transforms_of_a_build(self, grid64, monkeypatch, cells, modes, count):
        # a zero phi0 takes the transforms of any other, and u0 and phi0
        # share one kernel spectrum
        calls = [0]
        for name in ("rfft2", "irfft2"):
            def counting(*args, _real=getattr(np.fft, name), **kwargs):
                calls[0] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counting)
        recipe = InitialDataRecipe(amplitude=0.2, delta=cells * grid64.spacing,
                                   disks=((0.5, 0.5, 3.0, 1.0),),
                                   potential_modes=modes)
        _, phi0 = build_initial_data(recipe, grid64)
        assert calls[0] == count
        assert phi0.any() == bool(modes)

    def test_peak_memory_of_a_build(self):
        # NumPy registers its arrays with tracemalloc.  A build on a small
        # grid first makes the one-time allocations of the code path; the
        # traced build then makes a fresh N=64 grid's tables and builds the
        # theta scan workload's recipe: four random disks and two potential
        # modes, mollified.  The bound is the peak of the case run alone
        # (Python 3.11, NumPy 2.4), with the 8 KB margin of
        # test_peak_memory_of_a_single_run, a quarter of one N x N
        # array (32 768 bytes).
        modes = ((1, 0, 1.0, 0.0), (0, 2, 0.5, 1.0))
        grid, small = Grid(16 * np.pi, 64), Grid(16 * np.pi, 8)
        build_initial_data(InitialDataRecipe(
            amplitude=0.2, delta=2 * small.spacing, random_disks=4,
            potential_modes=modes), small)
        recipe = InitialDataRecipe(amplitude=0.2, delta=2 * grid.spacing,
                                   random_disks=4, potential_modes=modes)
        tracemalloc.start()
        try:
            build_initial_data(recipe, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 236_888 + 8_192

    @pytest.mark.parametrize("recipe", [
        # the first disk wraps across both edges of the box
        InitialDataRecipe(amplitude=0.3, disks=((0.97, 0.02, 3.0, 1.0),
                                                (0.4, 0.6, 2.0, -1.0)),
                          potential_modes=((2, 1, 0.5, 0.7),)),
        InitialDataRecipe(kind="piecewise_constant_stripes", amplitude=0.8,
                          stripes=((0.2, 0.25, 1.0), (0.9, 0.3, -0.5))),
        InitialDataRecipe(kind="smooth_bump", amplitude=0.5, bump_center=(0.3, 0.7),
                          bump_sharpness=10.0),
        # a potential alone: the disks kind with no disks
        InitialDataRecipe(amplitude=0.1,
                          potential_modes=((1, 0, 1.0, 0.0), (2, 3, 0.5, 1.3))),
    ], ids=["disks", "stripes", "smooth_bump", "potential_only"])
    def test_rasters_match_the_mesh_formulas(self, grid64, recipe):
        # the build broadcasts the sample axis; its u0 and phi0 equal, bit for
        # bit, the formulas on N x N coordinate meshes
        u, phi = mesh_rasters(recipe, grid64)
        ph = np.fft.rfft2(phi)
        ph[0, 0] = 0.0
        u0, phi0 = build_initial_data(recipe, grid64)
        assert np.array_equal(u0, u)
        assert np.array_equal(phi0, np.fft.irfft2(ph, s=grid64.shape))
        if recipe.disks:
            assert u0[0, 0] > 1.0 and u0[-1, -1] > 1.0

    def test_rejects_p0_at_most_four(self):
        with pytest.raises(ValueError):
            InitialDataRecipe(kind="smooth_bump", p0=4.0)

    def test_rejects_negative_delta(self):
        with pytest.raises(ParameterError, match="delta must be nonnegative"):
            InitialDataRecipe(delta=-1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialDataRecipe(kind="checkerboard")


def mesh_rasters(recipe, grid):
    """u0 and the potential of an unmollified recipe without random disks, by
    the formulas on N x N coordinate meshes."""
    X, Y = coordinates(grid)
    L, a = grid.side_length, recipe.amplitude
    u = np.ones(grid.shape)
    if recipe.kind == "piecewise_constant_disks":
        for cx, cy, radius, weight in recipe.disks:
            dx, dy = X - cx * L, Y - cy * L
            dx, dy = dx - L * np.round(dx / L), dy - L * np.round(dy / L)
            u += a * weight * (dx ** 2 + dy ** 2 < radius ** 2)
    elif recipe.kind == "piecewise_constant_stripes":
        for start, width, weight in recipe.stripes:
            u += a * weight * ((X / L - start) % 1.0 < width)
    elif recipe.kind == "smooth_bump":
        cx, cy = recipe.bump_center
        k = recipe.bump_sharpness
        u += a * (np.exp(k * (np.cos(2 * np.pi * (X - cx * L) / L) - 1.0))
                  * np.exp(k * (np.cos(2 * np.pi * (Y - cy * L) / L) - 1.0)))
    phi = np.zeros(grid.shape)
    for mx, my, amp, phase in recipe.potential_modes:
        phi += a * amp * np.sin(2 * np.pi * (mx * X + my * Y) / L + phase)
    return u, phi


def _stripe(grid, amplitude=1.0, start=0.3, width=0.3):
    X, _ = coordinates(grid)
    frac = X / grid.side_length
    return amplitude * (((frac - start) % 1.0) < width)


class TestMollify:
    def test_constant_fixed_point(self, grid64):
        f = constant_field(grid64, 2.5)
        for delta in (1.01 * grid64.spacing, 1.0, 3.0):
            out = mollify(grid64, f, mollifier_kernel(grid64, delta))
            assert np.abs(out - 2.5).max() <= 1e-13

    def test_mean_preserved(self, grid64):
        f = band_limited_field(grid64, seed=13, amplitude=2.0)
        out = mollify(grid64, f, mollifier_kernel(grid64, 1.3))
        assert abs(out.mean() - f.mean()) <= 1e-12

    def test_range_bounds(self, grid64):
        f = _stripe(grid64, amplitude=5.0)
        out = mollify(grid64, f, mollifier_kernel(grid64, 2.0))
        assert out.min() >= f.min() - 1e-12
        assert out.max() <= f.max() + 1e-12

    def test_stripe_distance_vanishes_monotonically(self):
        # deltas stay above the spacing so the kernel never degenerates
        grid = Grid(16 * np.pi, 128)
        f = _stripe(grid)
        deltas = [4.0, 2.0, 1.0, 0.5]
        dists = [lp_norm(grid, mollify(grid, f, mollifier_kernel(grid, d)) - f, 2)
                 for d in deltas]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.35 * dists[0]

    def test_lp_contraction(self, grid64):
        f = _stripe(grid64, amplitude=3.0)
        for p in (2, 4, 6, np.inf):
            for delta in (1.0, 1.5):
                ker = mollifier_kernel(grid64, delta)
                assert (lp_norm(grid64, mollify(grid64, f, ker), p)
                        <= lp_norm(grid64, f, p) + 1e-12)

    def test_gradient_sup_monotone_in_delta(self, grid64):
        # wider kernels smooth harder: sup |grad| nonincreasing in delta; the
        # mollified stripe is not band-limited, so its gradient is the oracle's
        f = _stripe(grid64)
        sups = [lp_norm(grid64, full_spectrum_gradient(
                    grid64, mollify(grid64, f, mollifier_kernel(grid64, d))), np.inf)
                for d in (4.0, 2.0, 1.0, 0.8)]  # shrinking widths, h = 0.785
        assert all(wide <= narrow + 1e-12
                   for wide, narrow in zip(sups, sups[1:]))

    def test_commutes_with_gradient(self, grid64):
        phi = band_limited_field(grid64, seed=17)
        delta = 1.1
        ker = mollifier_kernel(grid64, delta)
        a = mollify(grid64, spectral_gradient(grid64, phi), ker)
        b = spectral_gradient(grid64, mollify(grid64, phi, ker))
        assert a.shape == (2,) + grid64.shape
        assert np.abs(a - b).max() <= 1e-12

    def test_rejects_wide_kernel(self, grid64):
        f = constant_field(grid64, 1.0)
        with pytest.raises(ValueError):
            mollify(grid64, f,
                    mollifier_kernel(grid64, grid64.side_length / 4 + 0.1))

    def test_rejects_nonpositive_delta(self, grid64):
        with pytest.raises(ValueError):
            mollify(grid64, constant_field(grid64, 1.0),
                    mollifier_kernel(grid64, 0.0))

    @pytest.mark.parametrize("cells", [1.0, 0.5])
    def test_rejects_delta_of_at_most_one_cell(self, grid64, cells):
        # the bump's only sample in r < delta is its centre: the identity
        delta = cells * grid64.spacing
        with pytest.raises(ValueError, match="at one cell or less"):
            mollifier_kernel(grid64, delta)
        with pytest.raises(ValueError, match="at one cell or less"):
            build_initial_data(InitialDataRecipe(amplitude=0.2, delta=delta,
                                                 random_disks=2), grid64)


class TestProjectCurlFree:
    def test_identity_on_gradients(self, grid64):
        w = band_limited_gradient(grid64, seed=23)
        out = project_curl_free(grid64, w)
        assert np.abs(out - w).max() <= 1e-12

    def test_annihilates_pure_curl_part(self, grid64):
        L = grid64.side_length
        _, Y = coordinates(grid64)
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
