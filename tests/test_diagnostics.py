import numpy as np
import pytest

from chemoflux import (ChemistryParams, DiagnosticsRecord, Grid, StepperConfig,
                       fit_decay, lp_norm, run)
from chemoflux.diagnostics import CSV_COLUMNS
from chemoflux.harness import write_diagnostics_csv
from chemoflux.diagnostics import Node, TrajectoryRecorder, node_norms
from chemoflux.fields import band_rfft2
from sample_fields import (band_limited_field, band_limited_gradient,
                           band_limited_potential, constant_field,
                           field_from_function, run_rows, spectral_gradient,
                           zero_drift)
from oracles import (assemble_rhs_ut, calibrate_energy_constant,
                     check_energy_inequality, curl2d, curl_flux_residual,
                     divergence, effective_flux, energy_functionals,
                     flux_divergence_residual, gn_ratio, gradient,
                     lemma33_ratio, perp_gradient)

SINGLE_MODE_GN_RATIO = 0.194924200308419  # sqrt(3/8)/pi, locked


def solution_like_datum(grid, seed, amplitude=0.4):
    """A datum (u, phi) near the equilibrium (1, 0)."""
    u = 1.0 + amplitude * band_limited_field(grid, seed, kmax=6)
    return u, band_limited_potential(grid, seed + 50, kmax=6, amplitude=amplitude)


def solution_like_pair(grid, seed, amplitude=0.4):
    """The (u, v) of `solution_like_datum`, v = grad(phi)."""
    u, phi = solution_like_datum(grid, seed, amplitude)
    return u, spectral_gradient(grid, phi)


def run_pairs(grid, u0, phi0, cfg):
    """A run, and the ``(node, row)`` pair of each record node."""
    nodes = []
    traj, rows = run_rows(grid, u0, phi0, cfg, recorders=(nodes.append,))
    return traj, list(zip(nodes, rows))


class TestEffectiveFlux:
    def test_equilibrium_flux_vanishes(self, grid64):
        f = effective_flux(grid64, constant_field(grid64, 1.0), zero_drift(grid64),
                           chi=1.0)
        assert np.abs(f).max() <= 1e-13

    def test_flat_density_gives_drift_back(self, grid64):
        v = band_limited_gradient(grid64, 4, amplitude=0.5)
        f = effective_flux(grid64, constant_field(grid64, 1.0), v, chi=1.0)
        assert np.abs(f - v).max() <= 1e-12

    def test_chi_zero_is_pure_gradient(self, grid64):
        u, v = solution_like_pair(grid64, 9)
        f = effective_flux(grid64, u, v, chi=0.0)
        assert np.abs(f - gradient(grid64, u)).max() <= 1e-13


class TestFluxDivergenceIdentity:
    def test_equilibrium(self, grid64):
        u = constant_field(grid64, 1.0)
        v = zero_drift(grid64)
        rhs = assemble_rhs_ut(grid64, u, v, 1.0)
        assert flux_divergence_residual(grid64, u, v, 1.0, rhs) <= 1e-13

    def test_algebraic_for_any_band_limited_pair(self, grid64):
        # holds pointwise in time for arbitrary fields, solution or not,
        # as long as both sides assemble the same dealiased product
        for seed in (1, 2, 3):
            u, v = solution_like_pair(grid64, seed)
            rhs = assemble_rhs_ut(grid64, u, v, 1.0)
            assert flux_divergence_residual(grid64, u, v, 1.0, rhs) \
                <= 1e-11 * (1.0 + lp_norm(grid64, rhs, 2))

    def test_detects_injected_fault(self, grid64):
        u, v = solution_like_pair(grid64, 5)
        rhs = assemble_rhs_ut(grid64, u, v, 1.0)
        L = grid64.side_length
        X, _ = grid64.coordinates()
        bump = 1e-3 * np.sin(2 * np.pi * X / L)
        resid = flux_divergence_residual(grid64, u, v, 1.0, rhs + bump)
        fault_size = lp_norm(grid64, bump, 2)
        assert resid == pytest.approx(fault_size, rel=1e-6)

    def test_shape_mismatch_rejected(self, grid32, grid64):
        u, v = solution_like_pair(grid64, 5)
        with pytest.raises(ValueError):
            flux_divergence_residual(grid64, u, v, 1.0, constant_field(grid32, 0.0))


class TestCurlFluxIdentity:
    def test_zero_drift(self, grid64):
        u = 1.0 + band_limited_field(grid64, 3)
        assert curl_flux_residual(grid64, u, zero_drift(grid64), 1.0) <= 1e-13

    def test_flat_density(self, grid64):
        v = band_limited_gradient(grid64, 7, amplitude=0.8)
        assert curl_flux_residual(grid64, constant_field(grid64, 2.0), v, 1.0) \
            <= 1e-12

    def test_holds_for_curl_free_drift(self, grid64):
        for seed in (11, 12):
            u, v = solution_like_pair(grid64, seed)
            pg = perp_gradient(grid64, u)
            rhs = lp_norm(grid64, pg[0] * v[0] + pg[1] * v[1], 2)
            assert curl_flux_residual(grid64, u, v, 1.0) <= 1e-10 * (1.0 + rhs)

    def test_detects_drift_with_curl(self, grid64):
        u, _ = solution_like_pair(grid64, 13)
        psi = band_limited_field(grid64, 60, kmax=5)
        v_swirl = perp_gradient(grid64, psi)  # divergence-free, curl = lap(psi)
        assert curl_flux_residual(grid64, u, v_swirl, 1.0) > 1e-4


class TestEnergyFunctionals:
    def test_equilibrium_trajectory_is_null(self, grid32):
        cfg = StepperConfig(dt=0.05, t_end=1.0, record_every=5)
        _, pairs = run_pairs(grid32, constant_field(grid32, 1.0),
                             constant_field(grid32, 0.0), cfg)
        a1, a2, a3 = energy_functionals(grid32, pairs)
        assert max(a1, a2, a3) <= 1e-24

    def test_frozen_state_gives_initial_energy(self, grid32):
        u, phi = solution_like_datum(grid32, 21)
        cfg = StepperConfig(dt=0.05, t_end=0.0)
        _, pairs = run_pairs(grid32, u, phi, cfg)
        a1, _, a3 = energy_functionals(grid32, pairs)
        r = pairs[0][1]
        assert a1 == pytest.approx(r.u_l2 ** 2 + r.v_l2 ** 2, rel=1e-12)
        assert a3 == pytest.approx(r.v_l4 ** 4, rel=1e-12)

    def test_recomputation_matches_running_columns_at_full_cadence(self, grid32):
        # At amplitude 1e-4, ||u - 1||^2 is 1e-8 of the mean mode's power and
        # the functionals are below approx's default absolute floor of 1e-12,
        # so that floor is turned off.  The oracle measures u_t on each
        # state, so A2 checks the stepper's u_t node norms.
        for amplitude in (0.2, 1e-4):
            u, phi = solution_like_datum(grid32, 22, amplitude=amplitude)
            cfg = StepperConfig(dt=0.02, t_end=0.6, record_every=1)
            _, pairs = run_pairs(grid32, u, phi, cfg)
            a1, a2, a3 = energy_functionals(grid32, pairs)
            last = pairs[-1][1]
            assert a1 == pytest.approx(last.a1, rel=1e-9, abs=0), amplitude
            assert a2 == pytest.approx(last.a2, rel=1e-9, abs=0), amplitude
            assert a3 == pytest.approx(last.a3, rel=1e-9, abs=0), amplitude

    def test_running_columns_monotone_in_integral_parts(self, grid32):
        u, phi = solution_like_datum(grid32, 23)
        cfg = StepperConfig(dt=0.02, t_end=1.0, record_every=5)
        _, rows = run_rows(grid32, u, phi, cfg)
        blowups = [r.blowup_integral for r in rows]
        assert all(b1 >= b0 for b0, b1 in zip(blowups, blowups[1:]))
        a1s = [r.a1 for r in rows]
        assert all(x1 >= x0 - 1e-15 for x0, x1 in zip(a1s, a1s[1:]))

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            energy_functionals(Grid(1.0, 8), [])


class TestGnRatio:
    def test_single_mode_locked_value(self, grid64):
        L = grid64.side_length
        f = field_from_function(grid64, lambda X, Y: np.sin(2 * np.pi * X / L))
        assert gn_ratio(grid64, f) == pytest.approx(SINGLE_MODE_GN_RATIO, abs=1e-12)

    def test_scaling_invariance(self, grid64):
        f = band_limited_field(grid64, 31, zero_mean=True)
        base = gn_ratio(grid64, f)
        for s in (1e-6, 3.0, 2.7e5):
            assert gn_ratio(grid64, s * f) == pytest.approx(base, rel=1e-12)

    def test_dilation_sweep_stays_bounded(self):
        # on a fixed torus f(lambda x) keeps every L^p value distribution
        # while the gradient grows by lambda, so ratio(lambda)*lambda is
        # constant and the sweep stays under the ensemble ceiling
        L = 2 * np.pi * 8
        vals = []
        for lam in (1, 2, 4):
            grid = Grid(L, 128)
            f = field_from_function(
                grid, lambda X, Y: np.sin(lam * 2 * np.pi * X / L)
                * np.cos(lam * 2 * np.pi * Y / L))
            vals.append(gn_ratio(grid, f))
        assert max(vals) <= 0.21
        products = [v * lam for v, lam in zip(vals, (1, 2, 4))]
        assert max(products) - min(products) <= 1e-12

    def test_rejects_constant(self, grid32):
        with pytest.raises(ValueError):
            gn_ratio(grid32, constant_field(grid32, 2.0))


class TestFitDecay:
    def test_exact_exponential(self):
        ts = np.linspace(1.0, 8.0, 40)
        series = [(t, 2.0 * np.exp(-0.9 * t)) for t in ts]
        fit = fit_decay(series, (1.0, 8.0), quantity="demo")
        assert fit.rate == pytest.approx(0.9, abs=1e-10)
        assert fit.prefactor == pytest.approx(2.0, rel=1e-10)
        assert fit.residual <= 1e-10
        assert fit.n_samples == 40

    def test_constant_series_has_zero_rate(self):
        series = [(t, 5.0) for t in np.linspace(1, 5, 20)]
        fit = fit_decay(series, (1.0, 5.0))
        assert abs(fit.rate) <= 1e-12
        assert fit.prefactor == pytest.approx(5.0, rel=1e-12)

    def test_rejects_nonpositive_values(self):
        series = [(t, 1.0 - 0.3 * t) for t in np.linspace(1, 5, 20)]
        with pytest.raises(ValueError):
            fit_decay(series, (1.0, 5.0))

    def test_rejects_short_windows_and_bad_bounds(self):
        series = [(t, np.exp(-t)) for t in np.linspace(1, 5, 5)]
        with pytest.raises(ValueError):
            fit_decay(series, (1.0, 5.0))
        with pytest.raises(ValueError):
            fit_decay(series, (0.5, 5.0))
        with pytest.raises(ValueError):
            fit_decay(series, (5.0, 1.0))


class TestLemma33Ratio:
    def test_equilibrium_skipped(self, grid32):
        u = constant_field(grid32, 1.0)
        v = zero_drift(grid32)
        ut = assemble_rhs_ut(grid32, u, v, 1.0)
        assert lemma33_ratio(grid32, u, v, ut, p=2) is None

    def test_l2_ratio_bounded_and_refinement_stable(self):
        # in L2 the gradient energy splits exactly into divergence and curl
        # parts, so the ratio sits in [1/sqrt(2), 1] for curl-free drift
        vals = []
        for n in (64, 128, 256):
            grid = Grid(2 * np.pi * 4, n)
            u, v = solution_like_pair(grid, 33)
            ut = assemble_rhs_ut(grid, u, v, 1.0)
            r = lemma33_ratio(grid, u, v, ut, p=2)
            assert 0.7 <= r <= 1.0 + 1e-9
            vals.append(r)
        assert max(vals) - min(vals) <= 0.2 * max(vals)

    def test_p4_ratio_finite(self, grid64):
        u, v = solution_like_pair(grid64, 35)
        ut = assemble_rhs_ut(grid64, u, v, 1.0)
        r = lemma33_ratio(grid64, u, v, ut, p=4)
        assert np.isfinite(r) and r > 0

    def test_injected_curl_blows_ratio_up(self, grid64):
        # for p=2 on the torus Parseval splits the gradient energy exactly,
        # ||grad F||_2^2 = ||div F||_2^2 + ||curl F||_2^2.  With u ~ 1 and a
        # curl-free drift, div F = u_t carries all of it and the ratio sits
        # near 1.  A swirl w = perp_grad(psi) added to v reaches F only
        # through chi*u*curl w in curl F and leaves the denominator nearly
        # unchanged, so the ratio grows like sqrt(1 + kappa^2) where kappa is
        # ||curl w||_2 / ||div v_clean||_2.  That quotient depends on the box
        # (the drift is normalised by its maximum, the swirl's curl scales as
        # 1/L), so the swirl is sized against div v_clean and the claim is
        # checked on a long box and on the unit box.
        kappa = 10.0
        for grid in (grid64, Grid(2 * np.pi, 64)):
            u = 1.0 + 1e-3 * band_limited_field(grid, 36, kmax=1)
            v_clean = band_limited_gradient(grid, 37, kmax=1, amplitude=0.5)
            ut_clean = assemble_rhs_ut(grid, u, v_clean, 1.0)
            clean = lemma33_ratio(grid, u, v_clean, ut_clean, p=2)
            assert clean <= 1.0 + 1e-9
            swirl = perp_gradient(grid, band_limited_field(grid, 38, kmax=5))
            scale = (kappa * lp_norm(grid, divergence(grid, v_clean), 2)
                     / lp_norm(grid, curl2d(grid, swirl), 2))
            v_bad = v_clean + scale * swirl
            ut_bad = assemble_rhs_ut(grid, u, v_bad, 1.0)
            bad = lemma33_ratio(grid, u, v_bad, ut_bad, p=2)
            assert bad > 5 * clean


class TestEnergyInequality:
    def _fake_records(self, es, gs, us, v4s, dt=0.1):
        rows = []
        for i, (e, g, uu, v4) in enumerate(zip(es, gs, us, v4s)):
            rows.append(DiagnosticsRecord(
                t=i * dt, sigma=min(1.0, i * dt), u_l2=uu, grad_u_l2=g,
                u_linf=0, v_l2=np.sqrt(max(e - uu ** 2, 0.0)), v_l4=v4,
                v_lp0=0, v_linf=0, c_linf=0, flux_l2=0, flux_div_residual=0,
                flux_curl_residual=0, a1=0, a2=0, a3=0, blowup_integral=0,
                gn_ratio=0))
        return rows

    def test_dissipative_series_needs_no_forcing(self):
        # energy drops faster than the dissipation term on every interval
        es = [1.0, 0.8, 0.65]
        rows = self._fake_records(es, gs=[0.5, 0.5, 0.5], us=[0.5, 0.4, 0.3],
                                  v4s=[0.1, 0.1, 0.1])
        assert calibrate_energy_constant(rows) == 0.0
        assert check_energy_inequality(rows, 0.0) == []

    def test_growth_is_flagged_and_calibration_covers_it(self):
        es = [1.0, 1.5, 1.4]  # energy jumps between the first two rows
        rows = self._fake_records(es, gs=[0.1, 0.1, 0.1], us=[0.6, 0.6, 0.6],
                                  v4s=[1.0, 1.0, 1.0])
        assert check_energy_inequality(rows, 0.0) == [0.1]
        c = calibrate_energy_constant(rows)
        assert c > 0
        assert check_energy_inequality(rows, c + 1e-9) == []

    def test_smooth_run_satisfies_calibrated_inequality(self, grid32):
        u, phi = solution_like_datum(grid32, 41, amplitude=0.3)
        cfg = StepperConfig(dt=0.02, t_end=1.0, record_every=2)
        _, rows = run_rows(grid32, u, phi, cfg)
        c = calibrate_energy_constant(rows)
        assert np.isfinite(c) and c >= 0
        assert check_energy_inequality(rows, c + 1e-12) == []


class TestRecordSchema:
    def test_csv_row_matches_column_count(self, grid32, tmp_path):
        u, phi = solution_like_datum(grid32, 50)
        cfg = StepperConfig(dt=0.05, t_end=0.1)
        _, rows = run_rows(grid32, u, phi, cfg)
        write_diagnostics_csv(tmp_path / "d.csv", rows)
        lines = (tmp_path / "d.csv").read_text().splitlines()
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert [len(ln.split(",")) for ln in lines[2:]] == \
            [len(CSV_COLUMNS)] * len(rows)


class TestRecordAgainstOracles:
    """make_record's one-pass half-spectrum row against the full-spectrum oracles."""

    @pytest.mark.parametrize("grid", [Grid(2 * np.pi, 32), Grid(16 * np.pi, 64)],
                             ids=["n32", "n64"])
    def test_every_column_matches_oracle_along_a_run(self, grid):
        chi, p0 = 1.0, 6.0
        u0, phi0 = solution_like_datum(grid, 60, amplitude=0.3)
        seen = []

        def check(node):
            rec = node.row()
            u, v = node.u, node.v
            u_tilde = u - 1.0
            expected = {
                "u_l2": lp_norm(grid, u_tilde, 2),
                "grad_u_l2": lp_norm(grid, gradient(grid, u_tilde), 2),
                "u_linf": lp_norm(grid, u_tilde, np.inf),
                "v_l2": lp_norm(grid, v, 2),
                "v_l4": lp_norm(grid, v, 4),
                "v_lp0": lp_norm(grid, v, p0),
                "v_linf": lp_norm(grid, v, np.inf),
                "flux_l2": lp_norm(grid, effective_flux(grid, u, v, chi), 2),
                "gn_ratio": gn_ratio(grid, u_tilde),
            }
            for column, value in expected.items():
                assert getattr(rec, column) == pytest.approx(value, rel=1e-12), column
            assert rec.sigma == min(1.0, node.t)
            assert rec.flux_div_residual <= 1e-12
            assert rec.flux_curl_residual <= 1e-12
            seen.append(node.t)

        cfg = StepperConfig(dt=0.02, t_end=0.1, record_every=2)
        run([u0, phi0], cfg, ChemistryParams(chi=chi), p0=p0, recorders=(check,),
            grid=grid)
        assert len(seen) == 4

    def test_curl_residual_detects_swirl(self, grid64):
        # the spectral residual is chi*P(u curl v), not an identity: a
        # divergence-free swirl added to v must show, at the oracle's value,
        # in the row of a node that carries it.  A march's v is a gradient
        # by construction, so the node is built by hand; both fields are in
        # the dealias band
        u, v = solution_like_pair(grid64, 13)
        swirl = perp_gradient(grid64, band_limited_field(grid64, 60, kmax=5))
        v_bad = v + swirl
        uh = band_rfft2(u)
        node = Node(t=0.0, c_linf=1.0, a1=0.0, a2=0.0, a3=0.0, blowup_integral=0.0,
                    aux=node_norms(grid64, uh, np.zeros_like(uh), v_bad),
                    uh=uh, u=u, v=v_bad, grad_u=None, s=np.zeros(grid64.shape),
                    recorder=TrajectoryRecorder(grid64, chi=1.0, p0=6.0))
        rec = node.row()
        assert rec.flux_curl_residual > 1e-4
        assert rec.flux_curl_residual == pytest.approx(
            curl_flux_residual(grid64, u, v_bad, 1.0), rel=1e-12)
