import numpy as np
import pytest
from scipy.linalg import expm

from chemoflux import (ChemistryParams, Grid, RunOutcome, ScalarField,
                       StepperConfig, VectorField, curl2d, lp_norm, run)
from sample_fields import band_limited_field, band_limited_gradient
from oracles import dealias, project_curl_free


def single_mode_data(grid, m, eps_u, eps_phi):
    """u = 1 + eps_u cos(kx), v = grad(eps_phi sin(kx)) for k = 2 pi m / L."""
    L = grid.side_length
    k = 2 * np.pi * m / L
    X, _ = grid.coordinates()
    u0 = ScalarField(grid, 1.0 + eps_u * np.cos(k * X))
    v0 = VectorField(grid, np.stack([eps_phi * k * np.cos(k * X),
                                     np.zeros_like(X)]))
    return u0, v0, k


def linear_mode_solution(grid, m, eps_u, eps_phi, chi, t):
    """Exact small-perturbation solution for one cosine mode.

    Per wavevector the linearized pair (a, b) = (u-mode, div v-mode) obeys
    a' = -k^2 a + chi b, b' = -k^2 a; the matrix exponential of that 2x2
    system propagates the complex amplitudes.
    """
    L = grid.side_length
    k = 2 * np.pi * m / L
    a0 = eps_u / 2.0
    b0 = 1j * k * (eps_phi * k / 2.0)
    mat = np.array([[-k * k, chi], [-k * k, 0.0]])
    a_t, b_t = expm(mat * t) @ np.array([a0, b0])
    X, _ = grid.coordinates()
    phase = np.exp(1j * k * X)
    u = 1.0 + 2.0 * np.real(a_t * phase)
    v1_hat = -1j * b_t / k
    vx = 2.0 * np.real(v1_hat * phase)
    return u, vx


def smooth_state(grid, amplitude=0.3, seed=0):
    u0 = ScalarField(grid, 1.0 + amplitude
                     * band_limited_field(grid, seed, kmax=4).values)
    v0 = band_limited_gradient(grid, seed + 100, kmax=4, amplitude=amplitude)
    return u0, v0


def final_state(u0, companion, cfg, params=None):
    traj = run(u0, companion, cfg, params or ChemistryParams())
    assert traj.outcome is RunOutcome.COMPLETED
    return traj.final_state


def step_sizes(u0, v0, cfg, params=None):
    """The dt of each step run() takes, from a record at every step."""
    assert cfg.record_every == 1
    traj = run(u0, v0, cfg, params or ChemistryParams())
    return np.diff([r.t for r in traj.records])


class TestStepTransformed:
    def test_equilibrium_fixed_point(self, grid32):
        for scheme in ("imex_be", "imex_cn"):
            out = final_state(ScalarField.constant(grid32, 1.0),
                              VectorField.zero(grid32),
                              StepperConfig(dt=0.05, t_end=0.05, scheme=scheme))
            assert np.abs(out.u.values - 1.0).max() <= 1e-13
            assert np.abs(out.v.values).max() <= 1e-13
            assert out.t == 0.05

    def test_matches_linearized_mode_oracle(self):
        grid = Grid(2 * np.pi * 4, 32)
        eps = 1e-6
        u0, v0, _ = single_mode_data(grid, m=2, eps_u=eps, eps_phi=0.5 * eps)
        chi = 1.0
        dt = 0.01
        state = final_state(u0, v0, StepperConfig(dt=dt, t_end=1.0,
                                                  scheme="imex_cn"))
        u_ex, vx_ex = linear_mode_solution(grid, 2, eps, 0.5 * eps, chi, state.t)
        num = lp_norm(ScalarField(grid, state.u.values - u_ex), 2) \
            + lp_norm(ScalarField(grid, state.v.x - vx_ex), 2)
        den = lp_norm(ScalarField(grid, u_ex - 1.0), 2) \
            + lp_norm(ScalarField(grid, vx_ex), 2)
        assert num / den <= 1e-4 + 10 * dt * dt

    @pytest.mark.parametrize("scheme,lo,hi", [("imex_cn", 1.85, 2.3),
                                              ("imex_be", 0.85, 1.2)])
    def test_temporal_order(self, scheme, lo, hi):
        grid = Grid(2 * np.pi * 2, 32)
        u0, v0 = smooth_state(grid, amplitude=0.3)
        T = 0.5
        finals = [final_state(u0, v0, StepperConfig(dt=dt, t_end=T,
                                                    scheme=scheme)).u.values
                  for dt in (0.05, 0.025, 0.0125)]
        e1 = np.sqrt(((finals[0] - finals[1]) ** 2).sum())
        e2 = np.sqrt(((finals[1] - finals[2]) ** 2).sum())
        order = np.log2(e1 / e2)
        assert lo <= order <= hi

    def test_mean_and_curl_preserved(self, grid32):
        u0, v0 = smooth_state(grid32, amplitude=0.4, seed=3)
        state = final_state(u0, v0, StepperConfig(dt=0.01, t_end=1.0,
                                                  scheme="imex_cn"))
        assert abs(state.u.mean() - u0.mean()) <= 1e-13
        assert abs(state.v.x.mean() - v0.x.mean()) <= 1e-13
        assert lp_norm(curl2d(state.v), np.inf) <= 1e-12

    def test_companion_of_neither_type_rejected(self, grid32):
        # v0 selects the transformed system and c0 the original one; a bare
        # array is neither
        one = ScalarField.constant(grid32, 1.0)
        with pytest.raises(ValueError, match="ndarray selects no mode"):
            run(one, one.values, StepperConfig(dt=0.1, t_end=1.0),
                ChemistryParams())


class TestStepOriginal:
    def test_homogeneous_exact(self, grid32):
        mu, dt = 1.3, 0.2
        out = final_state(ScalarField.constant(grid32, 1.0),
                          ScalarField.constant(grid32, 2.0),
                          StepperConfig(dt=dt, t_end=dt),
                          ChemistryParams(chi=1.3 * 0.7, mu=mu, xi=0.7))
        assert np.abs(out.u.values - 1.0).max() <= 1e-13
        assert np.abs(out.c.values - 2.0 * np.exp(-mu * dt)).max() <= 1e-14

    def test_decoupled_heat_mode_decay(self):
        # xi = 0 turns the density equation into pure diffusion; a single
        # cosine mode must decay by exp(-k^2 t) up to O(dt^2)
        grid = Grid(2 * np.pi, 32)
        eps = 0.01
        u0, _, k = single_mode_data(grid, m=1, eps_u=eps, eps_phi=0.0)
        dt, T = 0.005, 0.5
        params = ChemistryParams(chi=0.0, mu=1.0, xi=0.0)
        state = final_state(u0, ScalarField.constant(grid, 1.0),
                            StepperConfig(dt=dt, t_end=T), params)
        X, _ = grid.coordinates()
        expected = 1.0 + eps * np.exp(-k * k * T) * np.cos(k * X)
        assert np.abs(state.u.values - expected).max() <= eps * 20 * dt * dt

    def test_positivity_and_extinction(self, grid32):
        c_mins = []
        cfg = StepperConfig(dt=0.25, t_end=10.0, record_every=1)
        traj = run(ScalarField.constant(grid32, 1.0),
                   ScalarField.constant(grid32, 2e-300), cfg, ChemistryParams(),
                   recorders=(lambda st, rec: c_mins.append(st.c.values.min()),))
        assert traj.outcome is RunOutcome.CHEMICAL_EXTINCTION
        assert c_mins and min(c_mins) > 0


class TestChooseDt:
    def test_zero_drift_hits_cap(self, grid32):
        u = ScalarField(grid32,
                        1.0 + 1e-9 * band_limited_field(grid32, 1).values)
        cfg = StepperConfig(dt=0.5, t_end=1.0, dt_mode="cfl", cfl_number=0.5)
        assert list(step_sizes(u, VectorField.zero(grid32), cfg)) == [0.5, 0.5]

    def test_doubling_drift_halves_dt(self, grid32):
        # the first step's dt is set by the initial state alone; the cap
        # and horizon sit above it
        v = band_limited_gradient(grid32, 5, amplitude=1.0)
        u = ScalarField(grid32, 1.0 + 1e-8 * band_limited_field(grid32, 2).values)
        cfg = StepperConfig(dt=0.2, t_end=0.2, dt_mode="cfl", cfl_number=0.5)
        dt1 = step_sizes(u, v, cfg)[0]
        dt2 = step_sizes(u, VectorField(grid32, 2 * v.values), cfg)[0]
        assert dt1 < 0.2
        assert abs(dt1 / dt2 - 2.0) <= 0.01

    def test_monotone_in_cfl_number(self, grid32):
        u, v = smooth_state(grid32, amplitude=0.5)
        dts = [step_sizes(u, v, StepperConfig(dt=10.0, t_end=10.0,
                                              dt_mode="cfl", cfl_number=c))[0]
               for c in (1.0, 0.5, 0.25)]
        assert dts[0] >= dts[1] >= dts[2]


class TestRun:
    def test_zero_horizon_gives_initial_record_only(self, grid32):
        u0, v0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.01, t_end=0.0)
        traj = run(u0, v0, cfg, ChemistryParams())
        assert traj.outcome is RunOutcome.COMPLETED
        assert len(traj.records) == 1
        assert traj.records[0].t == 0.0
        assert traj.records[0].a1 == pytest.approx(
            traj.records[0].u_l2 ** 2 + traj.records[0].v_l2 ** 2, rel=1e-12)

    def test_equilibrium_stays_at_machine_precision(self, grid32):
        u0 = ScalarField.constant(grid32, 1.0)
        v0 = VectorField.zero(grid32)
        cfg = StepperConfig(dt=0.01, t_end=10.0, record_every=100)
        traj = run(u0, v0, cfg, ChemistryParams())
        assert traj.outcome is RunOutcome.COMPLETED
        for r in traj.records:
            assert r.u_l2 <= 1e-12
            assert r.v_l2 <= 1e-12
            assert r.flux_div_residual <= 1e-12
            assert r.flux_curl_residual <= 1e-12

    def test_mean_conservation_over_thousand_steps(self, grid32):
        u0, v0 = smooth_state(grid32, amplitude=0.4, seed=7)
        cfg = StepperConfig(dt=0.005, t_end=5.0, record_every=1000)
        traj = run(u0, v0, cfg, ChemistryParams())
        final = traj.final_state
        assert abs(final.u.mean() - u0.mean()) <= 1e-12
        assert abs(final.v.x.mean() - v0.x.mean()) <= 1e-12
        assert abs(final.v.y.mean() - v0.y.mean()) <= 1e-12

    def test_curl_free_without_reprojection(self, grid32):
        u0, v0 = smooth_state(grid32, amplitude=0.5, seed=11)
        cfg = StepperConfig(dt=0.01, t_end=3.0, record_every=50)
        traj = run(u0, v0, cfg, ChemistryParams())
        v_final = traj.final_state.v
        assert lp_norm(curl2d(v_final), np.inf) <= 1e-10
        reproj = project_curl_free(v_final)
        assert np.abs(reproj.values - v_final.values).max() <= 1e-12

    def test_record_cadence_and_final_row(self, grid32):
        u0, v0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.01, t_end=0.25, record_every=7)
        traj = run(u0, v0, cfg, ChemistryParams())
        # rows at step 0, 7, 14, 21, and the final step 25
        assert [round(r.t / 0.01) for r in traj.records] == [0, 7, 14, 21, 25]

    def test_blowup_reported_as_outcome(self):
        grid = Grid(2 * np.pi, 32)
        u0 = ScalarField(grid, 1.0 + 5.0 * np.abs(
            band_limited_field(grid, 2, kmax=8).values))
        v0 = band_limited_gradient(grid, 3, kmax=8, amplitude=8.0)
        cfg = StepperConfig(dt=0.9, t_end=1000.0, scheme="imex_be",
                            record_every=10)
        traj = run(u0, v0, cfg, ChemistryParams())
        assert traj.outcome is RunOutcome.BLOWUP
        assert np.isfinite(traj.blowup_integral)
        assert traj.blowup_integral > 0
        assert "monitor" in traj.message
        assert traj.final_state is None

    def test_extinction_reported_as_outcome(self, grid32):
        u0 = ScalarField.constant(grid32, 1.0)
        c0 = ScalarField.constant(grid32, 2e-300)
        cfg = StepperConfig(dt=0.25, t_end=10.0, record_every=4)
        traj = run(u0, c0, cfg, ChemistryParams())
        assert traj.outcome is RunOutcome.CHEMICAL_EXTINCTION
        assert "floor" in traj.message
        # decay at unit rate from ln(2e-300) hits the floor before t=1
        assert float(traj.message.split("t=")[1].split()[0]) <= 1.0

    def test_chemical_supnorm_tracks_homogeneous_decay(self, grid32):
        # u = 1 everywhere: the tracked sup of c must follow exp(-mu t)
        u0 = ScalarField.constant(grid32, 1.0)
        v0 = VectorField.zero(grid32)
        cfg = StepperConfig(dt=0.01, t_end=2.0, record_every=50)
        traj = run(u0, v0, cfg, ChemistryParams())
        for r in traj.records:
            assert r.c_linf == pytest.approx(np.exp(-r.t), rel=1e-10)

    def test_snapshots_captured_at_requested_times(self, grid32):
        u0, v0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.01, t_end=0.5, record_every=5)
        traj = run(u0, v0, cfg, ChemistryParams(), snapshot_times=(0.2, 0.4))
        assert len(traj.snapshots) == 2
        for (t_snap, payload), expected in zip(traj.snapshots, (0.2, 0.4)):
            assert abs(t_snap - expected) <= 0.05 + 1e-12
            assert set(payload) == {"u", "v1", "v2"}

    def test_snapshots_land_off_record_and_off_step(self, grid32):
        # t=1.0 is a step end (20 steps of 0.05) but not a record (every 7th
        # step); t=0.525 falls inside a step, which is clipped to land on it
        u0, v0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.05, t_end=1.2, record_every=7)
        traj = run(u0, v0, cfg, ChemistryParams(), snapshot_times=(1.0, 0.525))
        times = [t for t, _ in traj.snapshots]
        assert len(times) == 2
        assert abs(times[0] - 0.525) <= 1e-12
        assert abs(times[1] - 1.0) <= 1e-12
        assert abs(traj.records[-1].t - 1.2) <= 1e-12
        # the snapshot holds the state at its own time: the same run cut
        # there ends on the same fields
        cut = run(u0, v0, StepperConfig(dt=0.05, t_end=0.525),
                  ChemistryParams())
        assert np.array_equal(traj.snapshots[0][1]["u"], cut.final_state.u.values)

    def test_on_step_snapshot_adds_no_step(self, grid32):
        u0, v0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.05, t_end=1.2, record_every=1)
        plain = run(u0, v0, cfg, ChemistryParams())
        snapped = run(u0, v0, cfg, ChemistryParams(), snapshot_times=(1.0,))
        assert [r.t for r in snapped.records] == [r.t for r in plain.records]

    def test_hook_states_are_distinct_and_unchanged(self, grid32):
        # run() hands hooks its live arrays without copying; it must never
        # write to them afterwards
        u0 = ScalarField(grid32, 1.0 + 0.3 * band_limited_field(grid32, 4,
                                                                 kmax=14).values)
        v0 = band_limited_gradient(grid32, 5, kmax=14, amplitude=0.3)
        for companion in (v0, ScalarField(grid32, np.exp(
                0.2 * band_limited_field(grid32, 6).values))):
            kept, at_hook = [], []

            def hook(state, rec):
                arrays = [state.u.values,
                          state.c.values if state.v is None else state.v.values]
                kept.append(arrays)
                at_hook.append([a.copy() for a in arrays])

            cfg = StepperConfig(dt=0.02, t_end=0.2, record_every=2)
            run(u0, companion, cfg, ChemistryParams(), recorders=(hook,))
            assert len(kept) == 6
            flat = [a for arrays in kept for a in arrays]
            for i, a in enumerate(flat):
                assert not any(np.shares_memory(a, b) for b in flat[i + 1:])
            for arrays, copies in zip(kept, at_hook):
                for a, b in zip(arrays, copies):
                    np.testing.assert_array_equal(a, b)
            # u0 carries modes beyond the 2/3 band, which the run drops; the
            # run's half-spectrum projection matches the full-spectrum oracle
            # up to round-off
            assert np.abs(u0.values - kept[0][0]).max() > 1e-6
            np.testing.assert_allclose(kept[0][0], dealias(u0).values,
                                       rtol=0, atol=1e-14)

    def test_extinct_initial_chemical_halts_at_start(self, grid32):
        vals = np.ones((32, 32))
        vals[3, 4] = 0.0
        traj = run(ScalarField.constant(grid32, 1.0), ScalarField(grid32, vals),
                   StepperConfig(dt=0.1, t_end=1.0), ChemistryParams(),
                   snapshot_times=(0.0,))
        assert traj.outcome is RunOutcome.CHEMICAL_EXTINCTION
        assert "t=0" in traj.message and "floor" in traj.message
        assert traj.records == [] and traj.snapshots == []
        assert traj.final_state is None
