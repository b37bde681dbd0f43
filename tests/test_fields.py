import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoflux import Grid, lp_norm, write_snapshot
from chemoflux.fields import band_rfft2, spectral_power
from sample_fields import (band_limited_field, band_limited_gradient,
                           constant_field, field_from_function)
from sample_fields import spectral_gradient as gradient
from oracles import (curl2d, dealias, divergence, gn_ratio, laplacian,
                     perp_gradient, product_dot, product_scalar_vector)
from oracles import gradient as full_spectrum_gradient

# empirical ceiling of ||f||_4^2 / (||f||_2 ||grad f||_2) over zero-mean
# band-limited samples; the single sine mode realizes sqrt(3/8)/pi ~ 0.1949
GN_RATIO_BOUND = 0.21


class TestGrid:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Grid(side_length=-1.0, resolution=32)
        with pytest.raises(ValueError):
            Grid(side_length=1.0, resolution=33)
        with pytest.raises(ValueError):
            Grid(side_length=1.0, resolution=4)

    def test_wavenumber_table(self, grid32):
        k = grid32.wavenumbers
        n = grid32.resolution
        assert k.shape == (n,)
        assert k[0] == 0.0
        # antisymmetric about zero except the Nyquist entry
        for m in range(1, n // 2):
            assert k[m] == -k[n - m]
        assert k[n // 2] == -np.pi * n / grid32.side_length
        assert np.isclose(k[1], 2 * np.pi / grid32.side_length)

    def test_cell_area(self, grid32):
        assert np.isclose(grid32.cell_area, (grid32.side_length / 32) ** 2)
        assert grid32.cell_area > 0


class TestHalfSpectrumParseval:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=4, max_value=32).map(lambda m: 2 * m),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_weighted_sums_match_full_spectrum_norms(self, n, seed):
        # columns 0 and N/2 of a half spectrum have no mirror image and
        # count once; the field puts energy in both, and in the y-Nyquist row
        grid = Grid(2 * np.pi * 3, n)
        L = grid.side_length
        X, Y = grid.coordinates()
        alt = (-1.0) ** np.arange(n)
        vals = (np.random.default_rng(seed).standard_normal((n, n))
                + 2.0 * alt[None, :] * (1.0 + np.sin(2 * np.pi * Y / L))
                + 2.0 * alt[:, None] * (1.0 + np.cos(2 * np.pi * X / L)))
        w = grid.cell_area / n ** 2
        fh = np.fft.rfft2(vals)
        power = spectral_power(fh)
        f_sq = lp_norm(grid, vals, 2) ** 2
        grad_sq = lp_norm(grid, full_spectrum_gradient(grid, vals), 2) ** 2
        assert w * grid.power_total(power) == pytest.approx(f_sq, rel=1e-12)
        assert w * grid.gradient_power(power) == pytest.approx(grad_sq, rel=1e-12)
        # the compact band of the same field, against its full-spectrum
        # projection: the tables meet it sliced to its a + 1 columns
        band = dealias(grid, vals)
        power = spectral_power(band_rfft2(vals))
        assert w * grid.power_total(power) == pytest.approx(
            lp_norm(grid, band, 2) ** 2, rel=1e-12)
        assert w * grid.gradient_power(power) == pytest.approx(
            lp_norm(grid, full_spectrum_gradient(grid, band), 2) ** 2, rel=1e-12)


class TestGradient:
    def test_constant_is_flat(self, grid32):
        g = gradient(grid32, constant_field(grid32, 7.0))
        assert np.abs(g).max() <= 1e-13

    def test_resolved_mode_analytic(self):
        grid = Grid(2 * np.pi * 3, 64)
        L = grid.side_length
        f = field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X / L))
        g = gradient(grid, f)
        X, _ = grid.coordinates()
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * X / L)
        assert np.abs(g[0] - expected).max() <= 1e-12
        assert np.abs(g[1]).max() <= 1e-12

    def test_matches_finite_differences_at_second_order(self):
        # fixed continuum function rasterized on two grids; centered FD error
        # against the spectral derivative must drop ~4x per refinement
        L = 2 * np.pi

        def fn(X, Y):
            return np.sin(3 * 2 * np.pi * X / L) * np.cos(2 * 2 * np.pi * Y / L) \
                + 0.3 * np.sin(2 * np.pi * (X + 2 * Y) / L)

        errs = []
        for n in (64, 128):
            grid = Grid(L, n)
            f = field_from_function(grid, fn)
            spectral = gradient(grid, f)
            h = grid.spacing
            fd_x = (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2 * h)
            fd_y = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * h)
            errs.append(max(np.abs(spectral[0] - fd_x).max(),
                            np.abs(spectral[1] - fd_y).max()))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    @pytest.mark.parametrize("n", [30, 64, 256])
    def test_compact_spectrum_matches_its_zero_padded_full_spectrum(self, n):
        # the inverse zero-pads the columns a compact spectrum lacks, so
        # its gradient is bit for bit that of the full-width spectrum
        grid = Grid(2 * np.pi, n)
        zh = band_rfft2(band_limited_field(grid, seed=n, kmax=n // 2))
        full = np.zeros((n, n // 2 + 1), complex)
        full[:, :zh.shape[1]] = zh
        np.testing.assert_array_equal(grid._gradient(zh), grid._gradient(full))

    def test_components_have_zero_mean(self, grid64):
        f = band_limited_field(grid64, seed=3)
        g = gradient(grid64, f)
        assert abs(g[0].mean()) <= 1e-14
        assert abs(g[1].mean()) <= 1e-14


class TestDivergence:
    def test_div_grad_equals_laplacian(self):
        grid = Grid(2 * np.pi, 64)
        L = grid.side_length
        f = field_from_function(
            grid, lambda X, Y: np.sin(2 * np.pi * X / L) * np.sin(2 * np.pi * Y / L))
        lhs = divergence(grid, gradient(grid, f))
        rhs = laplacian(grid, f)
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_constant_vector_field(self, grid32):
        w = np.stack([np.full((32, 32), 2.0), np.full((32, 32), -1.0)])
        assert np.abs(divergence(grid32, w)).max() <= 1e-13

    def test_matches_finite_differences(self):
        # shared continuum potential rasterized on each grid
        L = 2 * np.pi

        def fn(X, Y):
            return np.cos(4 * 2 * np.pi * X / L) + np.sin(3 * 2 * np.pi * Y / L)

        errs = []
        for n in (64, 128):
            grid = Grid(L, n)
            w = gradient(grid, field_from_function(grid, fn))
            d = divergence(grid, w)
            wx, wy = w
            h = grid.spacing
            fd = (np.roll(wx, -1, axis=1) - np.roll(wx, 1, axis=1)) / (2 * h) \
                + (np.roll(wy, -1, axis=0) - np.roll(wy, 1, axis=0)) / (2 * h)
            errs.append(np.abs(d - fd).max())
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_zero_mean(self, grid64):
        w = band_limited_gradient(grid64, seed=5)
        assert abs(divergence(grid64, w).mean()) <= 1e-14


class TestCurl:
    def test_curl_of_gradient_vanishes(self, grid64):
        for seed in range(5):
            f = band_limited_field(grid64, seed=seed)
            c = curl2d(grid64, gradient(grid64, f))
            assert np.abs(c).max() <= 1e-12

    def test_analytic_sign_conventions(self):
        grid = Grid(2 * np.pi * 4, 64)
        L = grid.side_length
        X, Y = grid.coordinates()
        k = 2 * np.pi / L
        w = np.stack([np.sin(k * Y), np.zeros_like(Y)])
        assert np.abs(curl2d(grid, w) - k * np.cos(k * Y)).max() <= 1e-12
        w = np.stack([np.zeros_like(X), np.sin(k * X)])
        assert np.abs(curl2d(grid, w) + k * np.cos(k * X)).max() <= 1e-12

    def test_grid_mismatch_rejected(self, grid32, grid64):
        f32 = band_limited_field(grid32, 0)
        w64 = band_limited_gradient(grid64, 0)
        with pytest.raises(ValueError):
            product_scalar_vector(grid64, f32, w64)


class TestLaplacian:
    def test_constant(self, grid32):
        assert np.abs(laplacian(grid32, constant_field(grid32, 5.0))).max() <= 1e-13

    def test_eigenfunction(self):
        grid = Grid(2 * np.pi * 2, 64)
        L = grid.side_length
        f = field_from_function(grid, lambda X, Y: np.sin(2 * np.pi * X / L))
        out = laplacian(grid, f)
        assert np.abs(out + (2 * np.pi / L) ** 2 * f).max() <= 1e-12

    def test_matches_div_grad_on_random_fields(self, grid64):
        for seed in (1, 2, 3):
            f = band_limited_field(grid64, seed)
            assert np.abs(laplacian(grid64, f)
                          - divergence(grid64, gradient(grid64, f))).max() <= 1e-12


class TestLpNorm:
    def test_constant_closed_form(self):
        grid = Grid(3.0, 16)
        f = constant_field(grid, -2.0)
        for p in (1, 2, 4, 7.5):
            assert np.isclose(lp_norm(grid, f, p), 2.0 * 3.0 ** (2.0 / p), rtol=1e-13)
        assert lp_norm(grid, f, np.inf) == 2.0

    def test_single_spike_sup_norm(self, grid32):
        vals = np.zeros((32, 32))
        vals[5, 7] = 5.0
        assert lp_norm(grid32, vals, np.inf) == 5.0

    def test_homogeneity(self, grid64):
        f = band_limited_field(grid64, seed=8)
        for p in (1, 2, 3, np.inf):
            base = lp_norm(grid64, f, p)
            scaled = lp_norm(grid64, -3.7 * f, p)
            assert np.isclose(scaled, 3.7 * base, rtol=1e-12)

    def test_vector_uses_euclidean_magnitude(self, grid32):
        w = np.stack([np.full((32, 32), 3.0), np.full((32, 32), 4.0)])
        L = grid32.side_length
        assert np.isclose(lp_norm(grid32, w, 2), 5.0 * L, rtol=1e-13)
        assert np.isclose(lp_norm(grid32, w, 3), 5.0 * L ** (2.0 / 3), rtol=1e-13)
        assert lp_norm(grid32, w, np.inf) == 5.0

    def test_rejects_p_below_one(self, grid32):
        with pytest.raises(ValueError):
            lp_norm(grid32, constant_field(grid32, 1.0), 0.5)

    def test_interpolation_inequality_sampler(self, grid64):
        # ||f||_4^2 <= C ||f||_2 ||grad f||_2 with C locked from the
        # ensemble scan; a single sine mode (ratio sqrt(3/8)/pi ~ 0.1949)
        # sits near the ensemble ceiling
        L = grid64.side_length
        seen = [gn_ratio(grid64, field_from_function(
            grid64, lambda X, Y: np.sin(2 * np.pi * X / L)))]
        for seed in range(20):
            f = band_limited_field(grid64, seed, kmax=7, zero_mean=True)
            seen.append(gn_ratio(grid64, f))
        assert max(seen) <= GN_RATIO_BOUND
        assert max(seen) > 0.19  # the bound is tight enough to be meaningful


class TestSpectralConvergence:
    def test_faster_than_any_polynomial_order(self):
        # analytic periodic target with spectrum wide enough that the coarse
        # grid misses measurable content (amplitude 4; at amplitude 1 the
        # N=32 truncation error already sits at rounding level)
        L = 2 * np.pi * 8
        errs = {}
        for n in (32, 64):
            grid = Grid(L, n)
            X, _ = grid.coordinates()
            f = np.exp(4 * np.sin(2 * np.pi * X / L))
            exact = (4 * 2 * np.pi / L) * np.cos(2 * np.pi * X / L) * f
            errs[n] = np.abs(gradient(grid, f)[0] - exact).max()
        assert errs[32] / max(errs[64], 1e-300) >= 1e3


class TestDealiasing:
    def test_mask_is_projection(self, grid64):
        f = band_limited_field(grid64, seed=2, kmax=grid64.resolution // 2 - 1)
        once = dealias(grid64, f)
        twice = dealias(grid64, once)
        assert np.abs(once - twice).max() <= 1e-13

    @pytest.mark.parametrize("n", [8, 30, 32, 48, 64])
    def test_half_spectrum_slices_match_full_spectrum_mask(self, n):
        # the band forward's compact spectrum, columns 0..a with the rows
        # past the band zeroed, is the square band of the full-spectrum
        # oracle, at sizes with and without a factor of 3
        grid = Grid(2 * np.pi, n)
        f = band_limited_field(grid, seed=n, kmax=n // 2)
        zh = band_rfft2(f)
        assert zh.shape == (n, (n - 1) // 3 + 1)
        kept = np.fft.irfft2(zh, s=grid.shape)
        assert np.abs(kept - dealias(grid, f)).max() <= 1e-13

    def test_in_band_product_rule_for_curl(self, grid64):
        # the discrete product rule through the 2/3 mask is exact when both
        # factors are band-limited; this is what makes the transported-flux
        # curl identity a machine-precision statement
        u = 1.0 + band_limited_field(grid64, 21, kmax=6) * 0.5
        v = band_limited_gradient(grid64, 22, kmax=6)
        lhs = curl2d(grid64, product_scalar_vector(grid64, u, v))
        # a curl-free v drops its term
        rhs = product_dot(grid64, perp_gradient(grid64, u), v)
        assert np.abs(lhs - rhs).max() <= 1e-12


def read_snapshot(path):
    """Reference reader of the CFX1 format; returns (N, [array, ...])."""
    blob = Path(path).read_bytes()
    magic, n, count, _ = struct.unpack_from("<4sIII", blob)
    assert magic == b"CFX1" and len(blob) == 16 + 8 * n * n * count
    data = np.frombuffer(blob, dtype="<f8", offset=16)
    return n, list(data.reshape(count, n, n))


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path, grid32):
        a = band_limited_field(grid32, 1)
        b = band_limited_field(grid32, 2)
        path = tmp_path / "state.cfx"
        write_snapshot(path, [a, b])
        n, comps = read_snapshot(path)
        assert n == 32
        assert len(comps) == 2
        np.testing.assert_array_equal(comps[0], a)
        np.testing.assert_array_equal(comps[1], b)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "one.cfx"
        write_snapshot(path, [np.zeros((16, 16))])
        blob = path.read_bytes()
        assert blob[:4] == b"CFX1"
        assert len(blob) == 16 + 16 * 16 * 8
        assert int.from_bytes(blob[4:8], "little") == 16
        assert int.from_bytes(blob[8:12], "little") == 1
