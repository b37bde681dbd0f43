import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from chemoflux import (ChemistryParams, Grid, InitialDataRecipe, RunOutcome,
                       StepperConfig, build_initial_data, lp_norm, run)
from sample_fields import (band_limited_field, band_limited_gradient,
                           band_limited_potential, constant_field, run_rows)
from chemoflux.evolve import _predictor_transport_hat
from oracles import (curl2d, dealias, divergence, gradient, product_scalar_vector,
                     project_curl_free)

MODES = ("transformed", "original")


def single_mode_data(grid, m, eps_u, eps_phi):
    """u = 1 + eps_u cos(kx) and phi = eps_phi sin(kx), so that
    v = grad(phi) = eps_phi k cos(kx), for k = 2 pi m / L."""
    L = grid.side_length
    k = 2 * np.pi * m / L
    X, _ = grid.coordinates()
    u0 = 1.0 + eps_u * np.cos(k * X)
    phi0 = eps_phi * np.sin(k * X)
    return u0, phi0, k


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
    """A datum (u0, phi0) whose u0 - 1 and grad(phi0) peak at ``amplitude``."""
    u0 = 1.0 + amplitude * band_limited_field(grid, seed, kmax=4)
    phi0 = band_limited_potential(grid, seed + 100, kmax=4, amplitude=amplitude)
    return u0, phi0


def final_state(grid, u0, phi0, cfg, params=None, mode="transformed"):
    traj = run([u0, phi0], cfg, params or ChemistryParams(), mode=mode, grid=grid)
    assert traj.outcome is RunOutcome.COMPLETED
    return traj.final_state


def step_sizes(grid, u0, phi0, cfg, params=None):
    """The dt of each step run() takes, from a record node at every step."""
    assert cfg.record_every == 1
    times = []
    run([u0, phi0], cfg, params or ChemistryParams(),
        recorders=(lambda node: times.append(node.t),), grid=grid)
    return np.diff(times)


class TestStepTransformed:
    def test_equilibrium_fixed_point(self, grid32):
        for scheme in ("imex_be", "imex_cn"):
            out = final_state(grid32, constant_field(grid32, 1.0),
                              constant_field(grid32, 0.0),
                              StepperConfig(dt=0.05, t_end=0.05, scheme=scheme))
            assert np.abs(out.u - 1.0).max() <= 1e-13
            assert np.abs(out.v).max() <= 1e-13
            assert out.t == 0.05

    def test_matches_linearized_mode_oracle(self):
        grid = Grid(2 * np.pi * 4, 32)
        eps = 1e-6
        u0, phi0, _ = single_mode_data(grid, m=2, eps_u=eps, eps_phi=0.5 * eps)
        chi = 1.0
        dt = 0.01
        state = final_state(grid, u0, phi0, StepperConfig(dt=dt, t_end=1.0,
                                                        scheme="imex_cn"))
        u_ex, vx_ex = linear_mode_solution(grid, 2, eps, 0.5 * eps, chi, state.t)
        num = lp_norm(grid, state.u - u_ex, 2) + lp_norm(grid, state.v[0] - vx_ex, 2)
        den = lp_norm(grid, u_ex - 1.0, 2) + lp_norm(grid, vx_ex, 2)
        assert num / den <= 1e-4 + 10 * dt * dt

    @pytest.mark.parametrize("scheme,lo,hi", [("imex_cn", 1.85, 2.3),
                                              ("imex_be", 0.85, 1.2)])
    def test_temporal_order(self, scheme, lo, hi):
        grid = Grid(2 * np.pi * 2, 32)
        u0, phi0 = smooth_state(grid, amplitude=0.3)
        T = 0.5
        finals = [final_state(grid, u0, phi0, StepperConfig(dt=dt, t_end=T,
                                                          scheme=scheme)).u
                  for dt in (0.05, 0.025, 0.0125)]
        e1 = np.sqrt(((finals[0] - finals[1]) ** 2).sum())
        e2 = np.sqrt(((finals[1] - finals[2]) ** 2).sum())
        order = np.log2(e1 / e2)
        assert lo <= order <= hi

    def test_mean_and_curl_preserved(self, grid32):
        # v starts as a gradient, whose mean is zero
        u0, phi0 = smooth_state(grid32, amplitude=0.4, seed=3)
        state = final_state(grid32, u0, phi0, StepperConfig(dt=0.01, t_end=1.0,
                                                            scheme="imex_cn"))
        assert abs(state.u.mean() - u0.mean()) <= 1e-13
        assert abs(state.v[0].mean()) <= 1e-13
        assert lp_norm(grid32, curl2d(grid32, state.v), np.inf) <= 1e-12

    def test_unknown_mode_rejected(self, grid32):
        one = constant_field(grid32, 1.0)
        with pytest.raises(ValueError, match="mode must be transformed or "
                                             "original, got 'chemical'"):
            run([one, one], StepperConfig(dt=0.1, t_end=1.0), ChemistryParams(),
                mode="chemical", grid=grid32)

    @pytest.mark.parametrize("shapes", [((32, 32), (16, 16)), ((16, 16), (32, 32)),
                                        ((2, 32, 32), (32, 32))])
    def test_datum_off_the_grid_rejected(self, grid32, shapes):
        data = [np.ones(shape) for shape in shapes]
        with pytest.raises(ValueError, match=r"grid's shape \(32, 32\)"):
            run(data, StepperConfig(dt=0.1, t_end=1.0), ChemistryParams(),
                grid=grid32)


    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_fused_predictor_transport_matches_oracle(self, n):
        # chi*div P(u_p v_p), v_p = v + dt/2 (grad u + grad u_p), against the
        # step's form from w = v + dt/2 grad u and u_p alone; every field
        # reaches the band edge |m| = (N-1)//3
        grid = Grid(16 * np.pi, n)
        kmax, dt, chi = (n - 1) // 3, 0.05, 1.3
        u = 1.0 + 0.3 * band_limited_field(grid, 1, kmax)
        u_p = 1.0 + 0.3 * band_limited_field(grid, 2, kmax)
        v = band_limited_gradient(grid, 3, kmax, amplitude=0.5)
        grad_u, grad_u_p = gradient(grid, u), gradient(grid, u_p)
        v_p = v + 0.5 * dt * (grad_u + grad_u_p)
        expected = chi * divergence(grid, product_scalar_vector(grid, u_p, v_p))
        fused = np.fft.irfft2(_predictor_transport_hat(
            grid, u_p, v + 0.5 * dt * grad_u, dt, chi), s=grid.shape)
        assert np.abs(fused - expected).max() <= 1e-12 * np.abs(expected).max()


class TestStepOriginal:
    def test_homogeneous_exact(self, grid32):
        mu, dt = 1.3, 0.2   # c0 = 2 is exp(-mu phi0)
        out = final_state(grid32, constant_field(grid32, 1.0),
                          constant_field(grid32, -np.log(2.0) / mu),
                          StepperConfig(dt=dt, t_end=dt),
                          ChemistryParams(chi=1.3 * 0.7, mu=mu), mode="original")
        assert np.abs(out.u - 1.0).max() <= 1e-13
        assert np.abs(np.exp(out.s) - 2.0 * np.exp(-mu * dt)).max() <= 1e-14

    def test_decoupled_heat_mode_decay(self):
        # chi = 0 turns the density equation into pure diffusion; a single
        # cosine mode must decay by exp(-k^2 t) up to O(dt^2)
        grid = Grid(2 * np.pi, 32)
        eps = 0.01
        u0, _, k = single_mode_data(grid, m=1, eps_u=eps, eps_phi=0.0)
        dt, T = 0.005, 0.5
        params = ChemistryParams(chi=0.0, mu=1.0)
        state = final_state(grid, u0, constant_field(grid, 0.0),
                            StepperConfig(dt=dt, t_end=T), params, mode="original")
        X, _ = grid.coordinates()
        expected = 1.0 + eps * np.exp(-k * k * T) * np.cos(k * X)
        assert np.abs(state.u - expected).max() <= eps * 20 * dt * dt

    def test_positivity_and_extinction(self, grid32):
        c_mins = []
        cfg = StepperConfig(dt=0.25, t_end=10.0, record_every=1)
        traj = run([constant_field(grid32, 1.0),
                    constant_field(grid32, -np.log(2e-300))], cfg, ChemistryParams(),
                   mode="original", grid=grid32,
                   recorders=(lambda node: c_mins.append(np.exp(node.s).min()),))
        assert traj.outcome is RunOutcome.CHEMICAL_EXTINCTION
        assert c_mins and min(c_mins) > 0


class TestChooseDt:
    def test_zero_drift_hits_cap(self, grid32):
        u = 1.0 + 1e-9 * band_limited_field(grid32, 1)
        cfg = StepperConfig(dt=0.5, t_end=1.0, dt_mode="cfl", cfl_number=0.5)
        assert list(step_sizes(grid32, u, constant_field(grid32, 0.0), cfg)) \
            == [0.5, 0.5]

    def test_doubling_drift_halves_dt(self, grid32):
        # the first step's dt is set by the initial state alone; the cap
        # and horizon sit above it
        phi = band_limited_potential(grid32, 5, amplitude=1.0)
        u = 1.0 + 1e-8 * band_limited_field(grid32, 2)
        cfg = StepperConfig(dt=0.2, t_end=0.2, dt_mode="cfl", cfl_number=0.5)
        dt1 = step_sizes(grid32, u, phi, cfg)[0]
        dt2 = step_sizes(grid32, u, 2 * phi, cfg)[0]
        assert dt1 < 0.2
        assert abs(dt1 / dt2 - 2.0) <= 0.01

    def test_monotone_in_cfl_number(self, grid32):
        u, phi = smooth_state(grid32, amplitude=0.5)
        dts = [step_sizes(grid32, u, phi, StepperConfig(dt=10.0, t_end=10.0,
                                                      dt_mode="cfl", cfl_number=c))[0]
               for c in (1.0, 0.5, 0.25)]
        assert dts[0] >= dts[1] >= dts[2]


@pytest.fixture
def transforms(monkeypatch):
    """A function that runs `run` to completion, building the row of each
    record node unless ``rows=False``, and returns the number of
    rfft2/irfft2 calls it made."""
    calls = [0]
    for name in ("rfft2", "irfft2"):
        def counting(*args, _real=getattr(np.fft, name), **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)

    def counted(grid, u0, phi0, cfg, rows=True, mode="transformed"):
        before = calls[0]
        hooks = (lambda node: node.row(),) if rows else ()
        assert run([u0, phi0], cfg, ChemistryParams(), mode=mode, recorders=hooks,
                   grid=grid).outcome is RunOutcome.COMPLETED
        return calls[0] - before
    return counted


class TestTransformBudget:
    """Exact transform counts, as differences between runs that differ only
    in horizon or in record cadence.  dt = 1/16 keeps the step ends exact,
    and the small data keep the CFL bound above that cap."""

    @pytest.mark.parametrize("mode,zero,count", [
        ("transformed", False, 10), ("original", False, 8),
        ("transformed", True, 6), ("original", True, 4)])
    def test_start_and_first_node(self, grid32, transforms, mode, zero, count):
        # u: 2; s and v from phi0: 4, none for a zero phi0; grad(u) in
        # transformed mode: 2; the t=0 node's transport term: 2
        u0, phi0 = smooth_state(grid32, amplitude=0.01)
        if zero:
            phi0 = constant_field(grid32, 0.0)
        assert transforms(grid32, u0, phi0, StepperConfig(dt=0.0625, t_end=0.0),
                          rows=False, mode=mode) == count

    @pytest.mark.parametrize("dt_mode", ["fixed", "cfl"])
    @pytest.mark.parametrize("scheme,per_step", [("imex_cn", 9), ("imex_be", 5)])
    def test_transformed_step(self, grid32, transforms, dt_mode, scheme, per_step):
        u0, phi0 = smooth_state(grid32, amplitude=0.01)
        steps = [transforms(grid32, u0, phi0, StepperConfig(
            dt=0.0625, t_end=t_end, dt_mode=dt_mode, scheme=scheme,
            record_every=1000)) for t_end in (0.5, 1.125)]   # 8 and 18 steps
        assert steps[1] - steps[0] == 10 * per_step

    def original_steps(self, grid, transforms, scheme):
        """Transforms of 10 original-mode steps at fixed dt."""
        u0, phi0 = smooth_state(grid, amplitude=0.01)
        steps = [transforms(grid, u0, phi0, StepperConfig(
            dt=0.0625, t_end=t_end, scheme=scheme, record_every=1000),
            mode="original") for t_end in (0.5, 1.125)]
        return steps[1] - steps[0]

    def test_original_step(self, grid32, transforms):
        assert self.original_steps(grid32, transforms, "imex_cn") == 110

    def test_original_be_step(self, grid32, transforms):
        assert self.original_steps(grid32, transforms, "imex_be") == 60

    @pytest.mark.parametrize("original,per_record", [(False, 3), (True, 5)])
    def test_record(self, grid32, transforms, original, per_record):
        # 20 steps: 21 rows, or the first and the last
        u0, phi0 = smooth_state(grid32, amplitude=0.01)
        records = [transforms(grid32, u0, phi0, StepperConfig(
            dt=0.0625, t_end=1.25, record_every=every), mode=MODES[original])
            for every in (1, 1000)]
        assert records[0] - records[1] == 19 * per_record

    @pytest.mark.parametrize("dt_mode", ["fixed", "cfl"])
    @pytest.mark.parametrize("original", [False, True])
    def test_record_node_without_row_is_free(self, grid32, transforms, original,
                                             dt_mode):
        # a node yields its free scalars at no transform; only its row costs
        u0, phi0 = smooth_state(grid32, amplitude=0.01)
        counts = [transforms(grid32, u0, phi0, StepperConfig(
            dt=0.0625, t_end=1.25, dt_mode=dt_mode, record_every=every),
            rows=False, mode=MODES[original]) for every in (1, 1000)]
        assert counts[0] == counts[1]


class TestRun:
    def test_zero_horizon_gives_initial_record_only(self, grid32):
        u0, phi0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.01, t_end=0.0)
        traj, rows = run_rows(grid32, u0, phi0, cfg)
        assert traj.outcome is RunOutcome.COMPLETED
        assert len(rows) == 1
        assert rows[0].t == 0.0
        assert rows[0].a1 == pytest.approx(
            rows[0].u_l2 ** 2 + rows[0].v_l2 ** 2, rel=1e-12)

    def test_equilibrium_stays_at_machine_precision(self, grid32):
        u0 = constant_field(grid32, 1.0)
        phi0 = constant_field(grid32, 0.0)
        cfg = StepperConfig(dt=0.01, t_end=10.0, record_every=100)
        traj, rows = run_rows(grid32, u0, phi0, cfg)
        assert traj.outcome is RunOutcome.COMPLETED
        for r in rows:
            assert r.u_l2 <= 1e-12
            assert r.v_l2 <= 1e-12
            assert r.flux_div_residual <= 1e-12
            assert r.flux_curl_residual <= 1e-12

    def test_mean_conservation_over_thousand_steps(self, grid32):
        # v starts as a gradient, whose mean is zero
        u0, phi0 = smooth_state(grid32, amplitude=0.4, seed=7)
        cfg = StepperConfig(dt=0.005, t_end=5.0, record_every=1000)
        traj = run([u0, phi0], cfg, ChemistryParams(), grid=grid32)
        final = traj.final_state
        assert abs(final.u.mean() - u0.mean()) <= 1e-12
        assert abs(final.v[0].mean()) <= 1e-12
        assert abs(final.v[1].mean()) <= 1e-12

    def test_curl_free_without_reprojection(self, grid32):
        u0, phi0 = smooth_state(grid32, amplitude=0.5, seed=11)
        cfg = StepperConfig(dt=0.01, t_end=3.0, record_every=50)
        traj = run([u0, phi0], cfg, ChemistryParams(), grid=grid32)
        v_final = traj.final_state.v
        assert lp_norm(grid32, curl2d(grid32, v_final), np.inf) <= 1e-10
        reproj = project_curl_free(grid32, v_final)
        assert np.abs(reproj - v_final).max() <= 1e-12
        # v is advanced in physical space; it stays in the dealias band
        assert np.abs(dealias(grid32, v_final) - v_final).max() <= 1e-13

    def test_record_cadence_and_final_row(self, grid32):
        u0, phi0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.01, t_end=0.25, record_every=7)
        _, rows = run_rows(grid32, u0, phi0, cfg)
        # rows at step 0, 7, 14, 21, and the final step 25
        assert [round(r.t / 0.01) for r in rows] == [0, 7, 14, 21, 25]

    def test_blowup_reported_as_outcome(self):
        grid = Grid(2 * np.pi, 32)
        u0 = 1.0 + 5.0 * np.abs(band_limited_field(grid, 2, kmax=8))
        phi0 = band_limited_potential(grid, 3, kmax=8, amplitude=8.0)
        cfg = StepperConfig(dt=0.9, t_end=1000.0, scheme="imex_be",
                            record_every=10)
        traj = run([u0, phi0], cfg, ChemistryParams(), grid=grid)
        assert traj.outcome is RunOutcome.BLOWUP
        monitor = float(traj.message.split("monitor = ")[1])
        assert np.isfinite(monitor) and monitor > 0
        assert traj.final_state is None

    def test_extinction_reported_as_outcome(self, grid32):
        u0 = constant_field(grid32, 1.0)
        phi0 = constant_field(grid32, -np.log(2e-300))   # c0 = 2e-300
        cfg = StepperConfig(dt=0.25, t_end=10.0, record_every=4)
        traj = run([u0, phi0], cfg, ChemistryParams(), mode="original", grid=grid32)
        assert traj.outcome is RunOutcome.CHEMICAL_EXTINCTION
        assert "floor" in traj.message
        # decay at unit rate from ln(2e-300) hits the floor before t=1
        assert float(traj.message.split("t=")[1].split()[0]) <= 1.0

    def test_chemical_supnorm_tracks_homogeneous_decay(self, grid32):
        # u = 1 everywhere: the tracked sup of c must follow exp(-mu t)
        u0 = constant_field(grid32, 1.0)
        phi0 = constant_field(grid32, 0.0)
        cfg = StepperConfig(dt=0.01, t_end=2.0, record_every=50)
        _, rows = run_rows(grid32, u0, phi0, cfg)
        for r in rows:
            assert r.c_linf == pytest.approx(np.exp(-r.t), rel=1e-10)

    def test_snapshots_captured_at_requested_times(self, grid32):
        u0, phi0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.01, t_end=0.5, record_every=5)
        snaps = []
        run([u0, phi0], cfg, ChemistryParams(), snapshot_times=(0.2, 0.4),
            snapshot_sink=lambda t, payload: snaps.append((t, payload)), grid=grid32)
        assert len(snaps) == 2
        for (t_snap, payload), expected in zip(snaps, (0.2, 0.4)):
            assert abs(t_snap - expected) <= 0.05 + 1e-12
            assert set(payload) == {"u", "v1", "v2"}

    def test_snapshot_times_need_a_sink(self, grid32):
        with pytest.raises(ValueError, match="snapshot_sink"):
            run(list(smooth_state(grid32)), StepperConfig(dt=0.1, t_end=0.2),
                ChemistryParams(), snapshot_times=(0.1,), grid=grid32)

    def test_snapshots_land_off_record_and_off_step(self, grid32):
        # t=1.0 is a step end (20 steps of 0.05) but not a record (every 7th
        # step); t=0.525 falls inside a step, which is clipped to land on it
        u0, phi0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.05, t_end=1.2, record_every=7)
        snaps = []
        traj, rows = run_rows(grid32, u0, phi0, cfg, snapshot_times=(1.0, 0.525),
                              snapshot_sink=lambda t, p: snaps.append((t, p)))
        times = [t for t, _ in snaps]
        assert len(times) == 2
        assert abs(times[0] - 0.525) <= 1e-12
        assert abs(times[1] - 1.0) <= 1e-12
        assert abs(rows[-1].t - 1.2) <= 1e-12
        # the snapshot holds the state at its own time: the same run cut
        # there ends on the same fields
        cut = run([u0, phi0], StepperConfig(dt=0.05, t_end=0.525),
                  ChemistryParams(), grid=grid32)
        assert np.array_equal(snaps[0][1]["u"], cut.final_state.u)

    def test_on_step_snapshot_adds_no_step(self, grid32):
        u0, phi0 = smooth_state(grid32)
        cfg = StepperConfig(dt=0.05, t_end=1.2, record_every=1)
        _, plain = run_rows(grid32, u0, phi0, cfg)
        _, snapped = run_rows(grid32, u0, phi0, cfg, snapshot_times=(1.0,),
                              snapshot_sink=lambda *_: None)
        assert [r.t for r in snapped] == [r.t for r in plain]

    @staticmethod
    def node_data(grid):
        """u0 and phi0 with modes beyond the dealias band."""
        u0 = 1.0 + 0.3 * band_limited_field(grid, 4, kmax=14)
        return u0, band_limited_potential(grid, 5, kmax=14, amplitude=0.3)

    def test_hook_states_are_distinct_and_unchanged(self, grid32):
        # run() hands hooks and the snapshot sink its live arrays without
        # copying; it must never write to them afterwards
        u0, phi0 = self.node_data(grid32)
        for mode in MODES:
            kept, at_hook, snapped = [], [], []

            def hook(node):
                arrays = [node.u, node.v, node.s, node.uh]
                if node.grad_u is not None:
                    arrays.append(node.grad_u)
                kept.append(arrays)
                at_hook.append([a.copy() for a in arrays])

            def sink(_, payload):
                snapped.extend((a, a.copy()) for a in payload.values())

            cfg = StepperConfig(dt=0.02, t_end=0.2, record_every=2)
            run([u0, phi0], cfg, ChemistryParams(), mode=mode, recorders=(hook,),
                snapshot_times=(0.06, 0.1), snapshot_sink=sink, grid=grid32)
            assert len(kept) == 6
            assert len(snapped) == 2 * (3 if mode == "transformed" else 2)   # 2 times
            for a, b in snapped:
                np.testing.assert_array_equal(a, b)
            flat = [a for arrays in kept for a in arrays]
            for i, a in enumerate(flat):
                assert not any(np.shares_memory(a, b) for b in flat[i + 1:])
            for arrays, copies in zip(kept, at_hook):
                for a, b in zip(arrays, copies):
                    np.testing.assert_array_equal(a, b)
            # u0 carries modes beyond the 2/3 band, which the run drops; the
            # run's half-spectrum projection matches the full-spectrum oracle
            # up to round-off
            assert np.abs(u0 - kept[0][0]).max() > 1e-6
            np.testing.assert_allclose(kept[0][0], dealias(grid32, u0),
                                       rtol=0, atol=1e-14)

    def test_final_state_is_the_last_node(self, grid32):
        u0, phi0 = self.node_data(grid32)
        for mode in MODES:
            nodes = []
            traj = run([u0, phi0], StepperConfig(dt=0.02, t_end=0.2, record_every=3),
                       ChemistryParams(), mode=mode, recorders=(nodes.append,),
                       grid=grid32)
            assert traj.outcome is RunOutcome.COMPLETED
            assert traj.final_state is nodes[-1]
            assert abs(traj.final_state.t - 0.2) <= 1e-12

    def test_node_spectrum_is_the_compact_band(self, grid32):
        # a march carries the spectrum of u as its N x (a + 1) dealias band
        u0, phi0 = self.node_data(grid32)
        for mode in MODES:
            nodes = []
            run([u0, phi0], StepperConfig(dt=0.02, t_end=0.1),
                ChemistryParams(), mode=mode, recorders=(nodes.append,), grid=grid32)
            assert len(nodes) == 6
            assert {node.uh.shape for node in nodes} == {(32, (32 - 1) // 3 + 1)}

    def test_node_fields_are_plain_arrays(self, grid32):
        # the datum and a node's fields are float64 ndarrays: u0, phi0, u
        # and s N x N, v and grad(u) (2, N, N)
        recipe = InitialDataRecipe(amplitude=0.2, random_disks=2, seed=1,
                                   potential_modes=((1, 0, 0.5, 0.0),))
        u0, phi0, _ = build_initial_data(recipe, grid32)
        scalar, vector = grid32.shape, (2,) + grid32.shape

        def assert_arrays(shape, *arrays):
            for a in arrays:
                assert type(a) is np.ndarray
                assert a.dtype == np.float64 and a.shape == shape

        assert_arrays(scalar, u0, phi0)
        cfg = StepperConfig(dt=0.05, t_end=0.1, dt_mode="cfl")
        for mode in MODES:
            nodes = []
            run([u0, phi0], cfg, ChemistryParams(), mode=mode,
                recorders=(nodes.append,), grid=grid32)
            assert len(nodes) == 3
            for node in nodes:
                assert_arrays(scalar, node.u, node.s)
                assert_arrays(vector, node.v)
                if node.t < 0.1:   # a CFL bound reads grad(u) in both modes
                    assert_arrays(vector, node.grad_u)

    @pytest.mark.parametrize("original,rows,bound", [
        (False, True, 401_032), (False, False, 354_912),
        (True, True, 423_624), (True, False, 334_880),
    ], ids=["transformed-rows", "transformed", "original-rows", "original"])
    def test_peak_memory_of_a_single_run(self, original, rows, bound):
        # NumPy registers its arrays with tracemalloc.  A run on a small
        # grid first makes the one-time allocations of the code paths; the
        # traced run then builds a fresh grid's tables and takes CN steps,
        # at CFL dt in transformed mode and at fixed dt in original mode,
        # building a row at every node or none.  Each bound is the peak of
        # the case run alone (Python 3.11, NumPy 2.4; some 300 bytes less
        # after the rest of the suite).  The 8 KB margin is under a quarter
        # of one full-width N x (N/2 + 1) spectrum at N=64 (33 792 bytes),
        # so a full-width intermediate that comes back fails, and so does
        # an N x N array (32 768 bytes) that a step holds again.
        grid, small = Grid(16 * np.pi, 64), Grid(16 * np.pi, 8)
        u0 = 1.0 + 0.3 * band_limited_field(grid, 7, kmax=14)
        if original:   # c0 = exp(0.2 f)
            mode = "original"
            data = [u0, -0.2 * band_limited_field(grid, 6)]
            warm = [constant_field(small, 1.0), constant_field(small, 1.0)]
            cfg = StepperConfig(dt=0.05, t_end=0.5, record_every=1)
        else:
            mode = "transformed"
            data = [u0, constant_field(grid, 0.0)]
            warm = [constant_field(small, 1.0), constant_field(small, 0.0)]
            cfg = StepperConfig(dt=0.05, t_end=0.5, dt_mode="cfl", record_every=1)
        hooks = (lambda node: node.row(),) if rows else ()
        run(warm, cfg, ChemistryParams(), mode=mode,
            recorders=(lambda node: node.row(),), grid=small)
        tracemalloc.start()
        try:
            run(data, cfg, ChemistryParams(), mode=mode, recorders=hooks, grid=grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound + 8_192

    def test_extinct_initial_chemical_halts_at_start(self, grid32):
        # c0 = exp(-mu phi0) is under the floor in one cell; the band
        # projection spreads the spike, so it is deep
        vals = np.zeros((32, 32))
        vals[3, 4] = 5000.0
        snaps = []
        traj, rows = run_rows(grid32, constant_field(grid32, 1.0), vals,
                              StepperConfig(dt=0.1, t_end=1.0), mode="original",
                              snapshot_times=(0.0,),
                              snapshot_sink=lambda *snap: snaps.append(snap))
        assert traj.outcome is RunOutcome.CHEMICAL_EXTINCTION
        assert "t=0" in traj.message and "floor" in traj.message
        assert rows == [] and snaps == []
        assert traj.final_state is None

    def test_overflowing_chemical_halts_alike_in_both_modes(self, grid32):
        # c0 = exp(-mu phi0) = e^710 overflows; the blow-up test reads
        # s = ln c, which both modes start from phi0
        u0 = 1.0 + 0.3 * band_limited_field(grid32, 1)
        messages = []
        for mode in MODES:
            traj = run([u0, constant_field(grid32, -710.0)],
                       StepperConfig(dt=0.1, t_end=1.0), ChemistryParams(),
                       mode=mode, grid=grid32)
            assert traj.outcome is RunOutcome.BLOWUP and traj.final_state is None
            messages.append(traj.message)
        assert messages[0] == messages[1] and "overflowing at t=0.0" in messages[0]

    def test_non_finite_datum_halts_at_start(self, grid32):
        # a NaN sample of either datum makes the t=0 node's norms or its
        # s = -mu phi0 non-finite: a blow-up at t=0, before any record
        for which in (0, 1):
            for mode in MODES:
                data = [constant_field(grid32, 1.0), constant_field(grid32, 0.0)]
                data[which][3, 4] = np.nan
                snaps = []
                traj, rows = run_rows(grid32, *data, StepperConfig(dt=0.1, t_end=1.0),
                                      mode=mode, snapshot_times=(0.0,),
                                      snapshot_sink=lambda *snap: snaps.append(snap))
                assert traj.outcome is RunOutcome.BLOWUP, (which, mode)
                assert "at t=0" in traj.message
                assert rows == [] and snaps == [] and traj.final_state is None

    def test_one_datum_gives_one_t0_node_in_both_modes(self, grid64):
        # disks and potential modes, mollified: both modes apply the
        # Cole-Hopf substitution to phi0, so their t=0 nodes agree; v is the
        # dealiased gradient of phi0, and curl-free
        recipe = InitialDataRecipe(amplitude=0.3, delta=2 * grid64.spacing,
                                   disks=((0.3, 0.4, 3.0, 1.0), (0.7, 0.6, 2.0, -1.0)),
                                   potential_modes=((1, 1, 0.5, 0.3), (0, 2, 1.0, 0.0)))
        u0, phi0, _ = build_initial_data(recipe, grid64)
        params = ChemistryParams(mu=1.7)
        nodes = {}
        for mode in MODES:
            traj = run([u0, phi0], StepperConfig(dt=0.1, t_end=0.0), params,
                       mode=mode, grid=grid64)
            nodes[mode] = traj.final_state
        a, b = nodes["transformed"], nodes["original"]
        for x, y in ((a.u, b.u), (a.v, b.v), (a.s, b.s)):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-13)
        assert a.c_linf == pytest.approx(b.c_linf, rel=1e-13, abs=0)
        band = dealias(grid64, phi0)
        np.testing.assert_allclose(a.s, -1.7 * band, rtol=0, atol=1e-13)
        np.testing.assert_allclose(a.v, gradient(grid64, band), rtol=0, atol=1e-13)
        assert lp_norm(grid64, curl2d(grid64, a.v), np.inf) <= 1e-12
