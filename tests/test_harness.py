"""The five studies and every CLI subcommand at N <= 32, with their exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemoflux
from chemoflux import harness
from chemoflux.cli import STUDY_COMMANDS, main
from chemoflux.cole_hopf import C_FLOOR
from chemoflux.diagnostics import TrajectoryRecorder
from chemoflux.evolve import EXIT_CODES
from chemoflux.harness import STUDIES, format_config, parse_config
from chemoflux.initial_data import RECIPE_KINDS

BASE = """grid.L = 6.283185307179586
grid.N = 32
recipe.kind = piecewise_constant_disks
recipe.amplitude = 0.1
recipe.random_disks = 2
recipe.seed = 3
recipe.delta = 2h
recipe.modes = 1,0,0.5,0.0
stepper.dt = 0.05
stepper.t_end = 0.3
threads = 1
"""

# grows without bound under backward Euler at dt = 0.9; sup c would overflow
# at t = 4.5, where the run halts
BLOWUP = """study = single_run
grid.L = 6.283185307179586
grid.N = 32
recipe.amplitude = 1.0
recipe.modes = 1,0,8.0,0.0; 0,2,4.0,1.0
stepper.scheme = imex_be
stepper.dt = 0.9
stepper.t_end = 20.0
"""

# phi = 1000 sin(x), so the matched chemical exp(-mu phi) underflows to 0
EXTINCT = """grid.L = 6.283185307179586
grid.N = 32
recipe.amplitude = 1.0
recipe.modes = 1,0,1000.0,0.0
"""

# a disk of weight -20 at amplitude 0.1 puts u0 = -1 under it
NEGATIVE_U0 = "recipe.disks = 0.5,0.5,1.0,-20\n"

# -mu phi reaches 900 > ln(float max) but stays above ln(C_FLOOR), so the
# matched chemical overflows to inf without underflowing
OVERFLOW = EXTINCT.replace("1,0,1000.0,0.0",
                           "1,0,600.0,0.0; 2,0,300.0,1.5707963267948966")


def cli(tmp_path, subcommand, text, *extra):
    cfg = tmp_path / f"{subcommand}.cfg"
    cfg.write_text(text)
    out = tmp_path / subcommand
    return main([subcommand, "--config", str(cfg), "--out", str(out),
                 *extra]), out


def csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def assert_same_table_at_two_threads(tmp_path, subcommand, out, table):
    """The study of ``cli``'s last config for ``subcommand``, rerun on two
    member threads, writes ``table`` byte for byte as it wrote it in ``out``."""
    out2 = tmp_path / "threads2"
    assert main([subcommand, "--config", str(tmp_path / f"{subcommand}.cfg"),
                 "--out", str(out2), "--threads", "2"]) == 0
    assert (out2 / table).read_bytes() == (out / table).read_bytes()


def test_run_fits_chemical_decay_at_rate_mu(tmp_path, capsys):
    text = "study = single_run\n" + BASE.replace("stepper.t_end = 0.3",
                                                 "stepper.t_end = 3.0")
    code, out = cli(tmp_path, "run", text)
    assert code == 0
    assert capsys.readouterr().out.startswith("outcome: completed  (61 records")
    rows = csv_rows(out / "diagnostics.csv")
    assert float(rows[-1]["t"]) == pytest.approx(3.0, abs=1e-12)
    fits = {r["quantity"]: r for r in csv_rows(out / "decay_summary.csv")}
    assert abs(float(fits["c_linf"]["rate"]) - 1.0) <= 0.05
    assert float(fits["c_linf"]["reference_rate"]) == 1.0
    assert parse_config((out / "config_echo.cfg").read_text()) == \
        parse_config(text)

    code = main(["fit-decay", "--csv", str(out / "diagnostics.csv"),
                 "--column", "c_linf", "--window", "2,3"])
    assert code == 0
    printed = capsys.readouterr().out
    rate = float(printed.split("rate=")[1].split()[0])
    assert rate == pytest.approx(float(fits["c_linf"]["rate"]), rel=1e-5)


def test_fit_decay_unknown_column_exits_2(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("# chemoflux-diagnostics-v1\nt,c_linf\n0,1\n1,0.5\n")
    assert main(["fit-decay", "--csv", str(csv), "--column", "u_linf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "u_linf" in err
    # a missing file, a one-number window, a window fit_decay rejects, a
    # row with fewer fields than the header
    short = tmp_path / "short.csv"
    short.write_text("t,c_linf\n2.0\n")
    for flags, needle in ((["--csv", str(tmp_path / "none.csv")], "none.csv"),
                          (["--csv", str(csv), "--window", "2"], "window"),
                          (["--csv", str(csv), "--window", "0.1,0.3"], "window"),
                          (["--csv", str(short)], "short.csv line 2")):
        assert main(["fit-decay", *flags]) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, flags
        assert needle in err, flags


def test_blowup_exits_10(tmp_path, capsys):
    # the halt comes before any written value overflows
    code, out = cli(tmp_path, "run", BLOWUP)
    assert code == 10
    printed = capsys.readouterr().out
    assert printed.startswith("outcome: blowup")
    halt_t = float(printed.split("at t=")[1].split(";")[0])
    assert halt_t == pytest.approx(4.5, abs=1e-12)
    rows = csv_rows(out / "diagnostics.csv")
    assert [float(r["t"]) for r in rows] == pytest.approx([0, 0.9, 1.8, 2.7, 3.6])
    assert all(math.isfinite(float(x)) for r in rows for x in r.values())


def test_extinction_at_start_exits_11(tmp_path, capsys):
    code, out = cli(tmp_path, "run", "study = single_run\nmode = original\n"
                    + EXTINCT)
    assert code == 11
    captured = capsys.readouterr()
    assert captured.out.startswith("outcome: chemical_extinction  (0 records")
    assert "t=0" in captured.out and "Traceback" not in captured.err
    assert csv_rows(out / "diagnostics.csv") == []
    assert csv_rows(out / "decay_summary.csv") == []


def test_xval_of_extinct_chemical_is_a_config_error(tmp_path, capsys):
    code, out = cli(tmp_path, "xval", "study = cross_validate\n" + EXTINCT)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'recipe'") and "floor" in err
    assert not out.exists()   # rejected before any output or run


@pytest.mark.parametrize("subcommand,study,lines,key", [
    ("run", "single_run", "grid.N = 16\n", "grid.N"),   # BASE gives grid.N = 32
    ("xval", "cross_validate", "xval.n_list = 16\nrefine.n_list = 32,64,128\n",
     "refine.n_list"),
    ("xval", "cross_validate", "refine.n_list = 32,64,128\nxval.n_list = 16\n",
     "xval.n_list"),
], ids=["key-twice", "xval-then-refine", "refine-then-xval"])
def test_second_value_of_one_setting_exits_2_naming_its_key(tmp_path, capsys,
                                                            subcommand, study,
                                                            lines, key):
    # the later value silently won: a run at N=16, an xval over 32, 64, 128
    code, out = cli(tmp_path, subcommand, f"study = {study}\n" + BASE + lines)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{key}': ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_overflowing_chemical_at_start_exits_10(tmp_path, capsys):
    # ln c0 = -mu phi reaches 900 > ln(float max): run() halts at the t=0
    # node, before exp(ln c) overflows; a warning would fail the test
    code, out = cli(tmp_path, "run", "study = single_run\nmode = original\n"
                    + OVERFLOW)
    assert code == 10
    captured = capsys.readouterr()
    assert captured.out.startswith("outcome: blowup  (0 records")
    assert "sup c overflowing at t=0" in captured.out
    assert captured.err == ""
    assert csv_rows(out / "diagnostics.csv") == []


@pytest.mark.parametrize("subcommand,head", [
    ("sweep-delta", "study = delta_sweep\nsweep.deltas = 4h,3h,2h\n"),
    ("xval", "study = cross_validate\n"),
    ("refine", "study = refinement\nrefine.dt_list = 0.9,0.6,0.3\n"
               "refine.n_list = 8,16,32\n"),   # dt = 0.9 halts at t = 4.5
], ids=["sweep-delta", "xval", "refine"])
def test_halted_study_member_exits_10(tmp_path, capsys, subcommand, head):
    code, _ = cli(tmp_path, subcommand,
                  head + BLOWUP.replace("study = single_run\n", ""))
    assert code == 10
    err = capsys.readouterr().err
    assert err.startswith("error: study run halted (blowup): ")
    assert err.count("\n") == 1 and "Traceback" not in err


SWEEP = "study = delta_sweep\nsweep.deltas = 4h,3h,2h\n"
REFINE = ("study = refinement\nrefine.dt_list = 0.1,0.05,0.025\n"
          "refine.n_list = 8,16,32\n")
# the finest temporal member (N=32, dt=0.005) is also the finest spatial one
REFINE_ORDER = ("study = refinement\nrefine.dt_list = 0.02,0.01,0.005\n"
                "refine.n_list = 8,16,32\n"
                + BASE.replace("stepper.t_end = 0.3", "stepper.t_end = 0.2"))


@pytest.mark.parametrize("subcommand,head,field,flags", [
    ("run", "study = theta_scan\nscan.amplitudes = 0.1\n", "study", ()),
    ("scan-theta", "scan.amplitudes = 0.1\n", "study", ()),   # study = single_run
    ("scan-theta", "study = theta_scan\nscan.amplitudes = 0.1\n"
                   "snapshot_times = 0.1\n", "snapshot_times", ()),
    # only single_run reads mode; the other studies would ignore it
    ("sweep-delta", SWEEP + "mode = original\n", "mode", ()),
    ("refine", REFINE + "mode = original\n", "mode", ()),
    ("xval", "study = cross_validate\nmode = original\n", "mode", ()),
    ("scan-theta", "study = theta_scan\nscan.amplitudes = 0.1\n"
                   "mode = original\n", "mode", ()),
    ("sweep-delta", SWEEP, "threads", ("--threads", "-2")),
    # widths above L/4 = 1.57 wrap the mollifier
    ("sweep-delta", "study = delta_sweep\nsweep.deltas = 20,10,5\n",
     "sweep.deltas", ()),
    # data that cannot be built
    ("run", "study = single_run\n" + NEGATIVE_U0, "recipe", ()),
    ("sweep-delta", SWEEP + NEGATIVE_U0, "recipe", ()),
    ("refine", REFINE + NEGATIVE_U0, "recipe", ()),
    ("xval", "study = cross_validate\n" + NEGATIVE_U0, "recipe", ()),
    # both studies step at fixed dt; a CFL step would be ignored
    ("refine", REFINE + "stepper.dt_mode = cfl\n", "stepper.dt_mode", ()),
    ("xval", "study = cross_validate\nstepper.dt_mode = cfl\n", "stepper.dt_mode",
     ()),
], ids=["study-run", "study-scan-theta", "snapshot_times", "mode-sweep-delta",
        "mode-refine", "mode-xval", "mode-scan-theta", "threads-flag",
        "sweep-too-wide", "u0-negative-run", "u0-negative-sweep-delta",
        "u0-negative-refine", "u0-negative-xval", "cfl-refine", "cfl-xval"])
def test_config_of_another_study_exits_2(tmp_path, capsys, subcommand, head, field,
                                         flags):
    code, out = cli(tmp_path, subcommand, head + BASE, *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{field}': ")
    assert err.count("\n") == 1
    assert not out.exists()   # rejected before any output or run


def test_scan_theta_of_overflowing_chemical_labels_blowup(tmp_path, capsys):
    # ln c0 = -phi reaches 1000 > ln(float max): each member halts at its
    # t=0 node, with no record, before c_linf overflows
    text = "study = theta_scan\nscan.amplitudes = 0.9,1.0\n" + EXTINCT
    code, out = cli(tmp_path, "scan-theta", text)
    assert code == 0
    rows = csv_rows(out / "theta_scan.csv")
    assert [r["outcome"] for r in rows] == ["blowup", "blowup"]
    assert all(r["a1"] == "nan" for r in rows)
    capsys.readouterr()


@pytest.mark.parametrize("times", ["abc", "5", "-1", "0.1,0.1", "0.1,0.1000001"])
def test_bad_snapshot_times_exit_2(tmp_path, capsys, times):
    # not a number, after t_end = 0.3, before t = 0, and two times whose
    # snapshot files, named to 6 decimals, would overwrite each other
    code, out = cli(tmp_path, "run", "study = single_run\n"
                    + BASE.replace("grid.N = 32", "grid.N = 16"),
                    "--snapshot-times", times)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'snapshot_times': ")
    assert err.count("\n") == 1
    assert not out.exists()   # rejected before any output or run


def test_unknown_key_exits_2(tmp_path, capsys):
    code, _ = cli(tmp_path, "run", BASE + "stepper.bogus = 1\n")
    assert code == 2
    assert "stepper.bogus" in capsys.readouterr().err


def test_chi_and_mu_are_independent_inputs(tmp_path, capsys):
    # mu alone moves neither chi nor anything to match; xi is not a key
    code, out = cli(tmp_path, "run", "study = single_run\n" + BASE
                    + "params.mu = 2\n")
    assert code == 0
    echo = parse_config((out / "config_echo.cfg").read_text())
    assert (echo.params.chi, echo.params.mu) == (1.0, 2.0)
    capsys.readouterr()
    code, _ = cli(tmp_path, "run", BASE + "params.xi = 1\n")
    assert code == 2
    assert "config field 'params.xi': unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "grid.N = 2.5e2", "params.mu = x", "stepper.dt = abc",
    "refine.n_list = 16.7,32", "xval.n_list = 16.7,32",   # not truncated to 16
    "stepper.dt = -1", "grid.N = 7", "recipe.kind = blob",  # parse, but out of range
    "xval.n_list = 16,7", "refine.n_list = 6,12,24",   # not a grid resolution
    "threads = 0",
    "xval.n_list = 64,8",   # N=8 would step at dt = 0.4 > t_end = 0.3
    "xval.n_list = 32,32",   # the same member twice
    # not finite: NaN passes every range check, and t_end = inf never ends
    "stepper.t_end = nan", "stepper.t_end = inf", "stepper.dt = nan",
    "grid.L = nan", "params.chi = nan", "params.mu = nan", "recipe.delta = nan",
    "recipe.delta = infh", "recipe.modes = 1,0,nan,0.0", "scan.amplitudes = 0.1,nan",
    # no disk would be drawn, and a radius r <= 0 would act as |r|
    "recipe.random_disks = -3", "recipe.disks = 0.5,0.5,0.0,1.0",
    "recipe.disks = 0.5,0.5,-0.2,1.0",
    # no cell lies in a stripe of width <= 0, and one past 1 is the whole box
    "recipe.stripes = 0.2,-0.3,1.0", "recipe.stripes = 0.2,0.0,1.0",
    "recipe.stripes = 0.2,1.5,1.0",
])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, line):
    key, value = line.split(" = ")
    code, out = cli(tmp_path, "xval", "study = cross_validate\n" + BASE + line + "\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{key}': ")
    assert value in err
    assert err.count("config field") == 1
    assert not out.exists()   # rejected before any output or run


def test_sweep_delta_is_deterministic_across_threads(tmp_path, capsys):
    text = "study = delta_sweep\nsweep.deltas = 4h,3h,2h\n" + BASE
    code, out = cli(tmp_path, "sweep-delta", text)
    assert code == 0
    rows = csv_rows(out / "delta_sweep.csv")
    assert [(float(r["delta_coarse"]), float(r["delta_fine"])) for r in rows] == \
        pytest.approx([(4 * math.pi / 16, 3 * math.pi / 16),
                       (3 * math.pi / 16, 2 * math.pi / 16)])
    assert all(float(r["du_l2"]) > 0 and float(r["dv_l2"]) > 0 for r in rows)
    assert "cauchy_decreasing" in capsys.readouterr().out
    assert_same_table_at_two_threads(tmp_path, "sweep-delta", out, "delta_sweep.csv")


def test_refine_runs_each_member_and_builds_each_grid_once(tmp_path, monkeypatch,
                                                          capsys):
    # the (grid.N, smallest dt) member serves both studies, and one datum
    # per grid serves every dt
    runs, builds = [], []
    real_run, real_build = harness.run, harness.build_initial_data

    def counting_run(data, stepper, *args, **kwargs):
        runs.append((kwargs["grid"].resolution, stepper.dt))
        return real_run(data, stepper, *args, **kwargs)

    def counting_build(recipe, grid):
        builds.append(grid.resolution)
        return real_build(recipe, grid)

    monkeypatch.setattr(harness, "run", counting_run)
    monkeypatch.setattr(harness, "build_initial_data", counting_build)
    code, _ = cli(tmp_path, "refine", REFINE_ORDER)
    assert code == 0
    assert sorted(runs) == [(8, 0.005), (16, 0.005), (32, 0.005), (32, 0.01),
                            (32, 0.02)]
    assert sorted(builds) == [8, 16, 32]
    capsys.readouterr()


def test_refine_reports_second_order_in_time(tmp_path, capsys):
    code, out = cli(tmp_path, "refine", REFINE_ORDER)
    assert code == 0
    rows = csv_rows(out / "refinement.csv")
    temporal = [r for r in rows if r["kind"] == "temporal"]
    spatial = [r for r in rows if r["kind"] == "spatial"]
    # each row compares a step size with the next smaller one
    assert [float(r["param"]) for r in temporal] == [0.02, 0.01]
    assert [int(r["param"]) for r in spatial] == [8, 16]
    assert 1.8 <= float(temporal[0]["order"]) <= 2.2     # IMEX-CN
    assert "temporal" in capsys.readouterr().out
    assert_same_table_at_two_threads(tmp_path, "refine", out, "refinement.csv")


@pytest.mark.parametrize("dt_list,n_list,key", [
    ("0.02,0.01,0.005", "8,12,16", "refine.n_list"),
    # a repeated entry has no observed order between it and its twin
    ("0.1,0.1,0.05", "8,16,32", "refine.dt_list"),
    ("0.1,0.05,0.025", "8,8,16", "refine.n_list"),
    ("0.5,0.4,0.3", "8,16,32", "refine.dt_list"),   # above t_end = 0.3
], ids=["not-dividing", "repeated-dt", "repeated-n", "dt-above-t_end"])
def test_refine_resolution_not_dividing_the_finest_exits_2(tmp_path, capsys,
                                                          dt_list, n_list, key):
    text = (f"study = refinement\nrefine.dt_list = {dt_list}\n"
            f"refine.n_list = {n_list}\n" + BASE)
    code, out = cli(tmp_path, "refine", text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{key}': ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_xval_solvers_agree(tmp_path, capsys):
    text = "study = cross_validate\nxval.n_list = 16,32\n" + BASE
    code, out = cli(tmp_path, "xval", text)
    assert code == 0
    rows = csv_rows(out / "cross_validate.csv")
    assert [int(r["N"]) for r in rows] == [16, 32]
    assert [float(r["dt"]) for r in rows] == [0.05, 0.025]
    for r in rows:
        assert 0 < float(r["max_u_discrepancy"]) <= 1e-3
        assert 0 < float(r["max_v_discrepancy"]) <= 1e-3
    assert_same_table_at_two_threads(tmp_path, "xval", out, "cross_validate.csv")
    capsys.readouterr()


@pytest.mark.parametrize("skew,message", [
    ({"record_every": 2}, "same time"),      # a record between two of the other's
    ({"t_end": 0.1}, "no original record"),   # the original run stops early
    ({"t_end": 0.5}, "no transformed record"),   # the transformed run stops early
    pytest.param({"floor_margin": 0.12},     # the original run halts at t=0.15
                 r"halted \(chemical_extinction\): chemical under floor at t=0\.15",
                 id="original-halts"),
])
def test_xval_refuses_unmatched_records(tmp_path, monkeypatch, skew, message):
    # the two solvers' records are compared pairwise; a record of one
    # without a partner at the same time must not be skipped, and a partner
    # that halts is a halted study member
    real_march = harness.march
    skew = dict(skew)
    margin = skew.pop("floor_margin", None)

    def skewed_march(data, cfg, params, **kw):
        assert kw["mode"] == "original"   # the transformed run goes through run()
        if margin is not None:
            # a constant shift leaves v = grad(phi0) as it was, but puts
            # min c = exp(-mu max phi0) just above the floor, where decay
            # soon takes it
            phi0 = data[1]
            shift = -(math.log(C_FLOOR) + margin) / params.mu - phi0.max()
            data[1] = phi0 + shift
        return real_march(data, replace(cfg, **skew), params, **kw)

    monkeypatch.setattr(harness, "march", skewed_march)
    cfg = parse_config("study = cross_validate\n" + BASE)
    with pytest.raises(RuntimeError, match=message) as info:
        harness.run_cross_validate(cfg, out_dir=tmp_path)
    if margin is None:
        assert info.type is RuntimeError
    else:
        assert info.type is harness.RunHalted
        assert EXIT_CODES[info.value.outcome] == 11


def test_xval_memory_does_not_grow_with_the_horizon(tmp_path):
    # the two solvers step in lockstep, so xval holds one state per mode
    # however many records it compares; NumPy reports its buffers to
    # tracemalloc.  From t=0.3 to t=1.5 there are 24 more records.
    n = 32
    state_bytes = 3 * n * n * 8   # u and the two components of v

    def peak(t_end):
        cfg = parse_config("study = cross_validate\nstepper.record_every = 1\n"
                           + BASE.replace("stepper.t_end = 0.3",
                                          f"stepper.t_end = {t_end}"))
        tracemalloc.start()
        try:
            harness.run_cross_validate(cfg, out_dir=tmp_path / str(t_end))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.3)   # warm-up: one-time allocations are not the horizon's
    assert peak(1.5) - peak(0.3) < 2 * state_bytes


def test_single_run_memory_does_not_grow_with_its_snapshots(tmp_path):
    # each snapshot is written when the march reaches its time and dropped,
    # and the march holds one state (u, its spectrum, grad u, v, s and the
    # transport term, about three states' bytes) plus a step's arrays
    n = 32
    state_bytes = 3 * n * n * 8   # u and the two components of v

    def peak(count):
        # 12 steps of 0.05 to t = 0.6; the snapshots land on the first steps
        times = ",".join(f"{0.05 * k:.2f}" for k in range(1, count + 1))
        cfg = parse_config("study = single_run\n" + BASE.replace(
            "stepper.t_end = 0.3", "stepper.t_end = 0.6")
            + f"snapshot_times = {times}\n")
        tracemalloc.start()
        try:
            harness.run_single(cfg, out_dir=tmp_path / str(count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)   # warm-up: one-time allocations are not the snapshots'
    two, twelve = peak(2), peak(12)
    assert len(list((tmp_path / "12").glob("snapshot_*.cfx"))) == 12
    assert twelve - two < state_bytes
    assert max(two, twelve) < 8 * state_bytes


def test_snapshot_is_on_disk_before_the_next_record(tmp_path, monkeypatch):
    # the single run writes a snapshot when its march reaches the time,
    # before the next step, not when the run ends
    seen = []
    real_record = TrajectoryRecorder.make_record
    times = (0.1, 0.2)
    out = tmp_path / "out"

    def looking(self, node):
        seen.append((node.t, [(out / f"snapshot_{ts:.6f}.cfx").is_file()
                              for ts in times]))
        return real_record(self, node)

    monkeypatch.setattr(TrajectoryRecorder, "make_record", looking)
    cfg = parse_config("study = single_run\nsnapshot_times = 0.1,0.2\n" + BASE)
    harness.run_single(cfg, out_dir=out)
    assert len(seen) == 7   # 6 steps of 0.05, a record at each node
    for t, on_disk in seen:
        assert on_disk == [t > ts + 1e-12 for ts in times], t


# the config lines each study needs on top of BASE
STUDY_EXTRA = {
    "single_run": "",
    "delta_sweep": "sweep.deltas = 4h,3h,2h\n",
    "refinement": "refine.dt_list = 0.1,0.05,0.025\nrefine.n_list = 8,16,32\n",
    "cross_validate": "",
    "theta_scan": "scan.amplitudes = 0.05,0.1\n",
}


@pytest.mark.parametrize("subcommand,study", [c[:2] for c in STUDY_COMMANDS])
def test_negative_seed_exits_2_in_every_study(tmp_path, capsys, subcommand, study):
    # random.Random(-n) would draw the layout of n; a negative seed is
    # refused at parse time, also in the theta scan, which builds its data
    # inside each member
    code, out = cli(tmp_path, subcommand, f"study = {study}\n" + STUDY_EXTRA[study]
                    + BASE + "recipe.seed = -3\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'recipe.seed': ")
    assert err.count("\n") == 1
    assert not out.exists()


# runs each (subcommand, config, out) triple of its arguments through the
# CLI and prints whether numpy.random was loaded by numpy alone and at the end
NO_NUMPY_RANDOM = """
import json, sys
import numpy
with_numpy = "numpy.random" in sys.modules
from chemoflux.cli import main
args = iter(sys.argv[1:])
codes = [main([cmd, "--config", cfg, "--out", out])
         for cmd, cfg, out in zip(args, args, args)]
print(json.dumps({"codes": codes, "with_numpy": with_numpy,
                  "after": "numpy.random" in sys.modules}))
"""


def test_random_layouts_do_not_load_numpy_random(tmp_path):
    # a study draws its disk layouts with the standard library; this test
    # suite loads numpy.random itself, so the studies run in a fresh
    # interpreter
    small = BASE.replace("grid.N = 32", "grid.N = 16")
    assert "recipe.random_disks = 2" in small and "threads = 1" in small
    args = []
    for subcommand, study in (("scan-theta", "theta_scan"), ("xval", "cross_validate")):
        cfg = tmp_path / f"{subcommand}.cfg"
        cfg.write_text(f"study = {study}\n" + STUDY_EXTRA[study] + small)
        args += [subcommand, str(cfg), str(tmp_path / subcommand)]
    src = str(Path(chemoflux.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["with_numpy"]:
        pytest.skip("this NumPy loads numpy.random on import")
    assert result == {"codes": [0, 0], "with_numpy": False, "after": False}


def test_every_study_enters_run_before_its_first_record(tmp_path, monkeypatch,
                                                        capsys):
    # the benchmark's setup time ends at the first entry into harness.run;
    # a study that visited a time node before it would count stepping as
    # setup.  The witness is the first node's functionals update (on_node):
    # most studies build no record, and a run's first node comes before its
    # first step.  The benchmark's tracer tags a run's mode from a mode
    # keyword or a fifth positional argument, or "transformed" without
    # either; only the single run passes one, the config's mode.  Every
    # study but the theta scan, where data that cannot be built is a row
    # label, builds all its data before it makes any output.
    events, tags = [], []
    real_run, real_node = harness.run, TrajectoryRecorder.on_node
    real_output, real_build = harness._output, harness.build_initial_data

    def counting_run(*args, **kwargs):
        tags.append(kwargs.get("mode", args[4] if len(args) > 4 else "transformed"))
        events.append("run")
        return real_run(*args, **kwargs)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            events.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "run", counting_run)
    monkeypatch.setattr(TrajectoryRecorder, "on_node", counting("node", real_node))
    monkeypatch.setattr(harness, "_output", counting("output", real_output))
    monkeypatch.setattr(harness, "build_initial_data", counting("build", real_build))
    small = BASE.replace("grid.N = 32", "grid.N = 16")
    for subcommand, study, *_ in STUDY_COMMANDS:
        events.clear()
        code, _ = cli(tmp_path, subcommand, f"study = {study}\n"
                      + STUDY_EXTRA[study] + small)
        assert code == 0, subcommand
        assert "node" in events, subcommand
        assert "run" in events[:events.index("node")], subcommand
        if study != "theta_scan":
            assert "build" in events, subcommand
            assert "build" not in events[events.index("output"):], subcommand
    assert set(tags) == {"transformed"}
    tags.clear()
    assert cli(tmp_path, "run", "study = single_run\nmode = original\n" + small)[0] == 0
    assert tags == ["original"]
    capsys.readouterr()


def test_studies_hand_over_each_datum(tmp_path, monkeypatch, capsys):
    # a member's march empties the holder of its datum and drops the
    # unprojected fields once it has projected them, so no frame of the
    # study keeps them while the member runs; only the refinement, whose
    # grids each serve several step sizes, keeps its data
    refs, alive = [], []
    real_build, real_node = harness.build_initial_data, TrajectoryRecorder.on_node

    def build(recipe, grid):
        u0, phi0, summary = real_build(recipe, grid)
        refs.extend((weakref.ref(u0), weakref.ref(phi0)))
        return u0, phi0, summary

    def on_node(self, t, aux):
        alive.append(sum(ref() is not None for ref in refs))
        return real_node(self, t, aux)

    monkeypatch.setattr(harness, "build_initial_data", build)
    monkeypatch.setattr(TrajectoryRecorder, "on_node", on_node)
    small = BASE.replace("grid.N = 32", "grid.N = 16")
    for subcommand, study, *_ in STUDY_COMMANDS:
        if study == "refinement":
            continue
        refs.clear()
        alive.clear()
        code, _ = cli(tmp_path, subcommand, f"study = {study}\n"
                      + STUDY_EXTRA[study] + small)
        assert code == 0, subcommand
        assert alive and alive[-1] == 0, subcommand
        # later members' data wait; an earlier member's never come back
        assert alive == sorted(alive, reverse=True), subcommand
        if study in ("single_run", "theta_scan"):
            assert set(alive) == {0}, subcommand
    capsys.readouterr()


def test_only_the_single_run_builds_rows(tmp_path, monkeypatch, capsys):
    # the single run writes one row per record node; every other study reads
    # the free scalars of its nodes, or the final state, and builds none
    built = []
    real_record = TrajectoryRecorder.make_record

    def counting(self, node):
        built.append(node.t)
        return real_record(self, node)

    monkeypatch.setattr(TrajectoryRecorder, "make_record", counting)
    small = BASE.replace("grid.N = 32", "grid.N = 16")
    for subcommand, study, *_ in STUDY_COMMANDS:
        built.clear()
        code, out = cli(tmp_path, subcommand, f"study = {study}\n"
                        "stepper.record_every = 2\n" + STUDY_EXTRA[study] + small)
        assert code == 0, subcommand
        if study == "single_run":
            # 6 steps of 0.05: record nodes at steps 0, 2, 4 and 6
            rows = csv_rows(out / "diagnostics.csv")
            assert built == [float(r["t"]) for r in rows] == \
                pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-12)
        else:
            assert built == [], subcommand
    capsys.readouterr()


@pytest.mark.parametrize("subcommand,study,table", [
    ("sweep-delta", "delta_sweep", "delta_sweep.csv"),
    ("refine", "refinement", "refinement.csv"),
    ("xval", "cross_validate", "cross_validate.csv"),
    ("scan-theta", "theta_scan", "theta_scan.csv"),
])
def test_printed_table_is_the_written_table(tmp_path, capsys, subcommand, study,
                                            table):
    # the CLI prints the CSV's header and a line per CSV row, each cell the
    # CSV's number to 6 significant digits; only the delta sweep adds a line
    small = BASE.replace("grid.N = 32", "grid.N = 16")
    code, out = cli(tmp_path, subcommand, f"study = {study}\n" + STUDY_EXTRA[study]
                    + small)
    assert code == 0
    lines = [ln for ln in (out / table).read_text().splitlines()
             if not ln.startswith("#")]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == lines[0].split(",")
    assert len(printed) == len(lines) + (subcommand == "sweep-delta")

    def shown_as(cell):
        try:
            return format(float(cell), ".6g")
        except ValueError:   # a label
            return cell

    for shown, written in zip(printed[1:], lines[1:]):
        assert shown.split() == [shown_as(c) for c in written.split(",")]
    if subcommand == "sweep-delta":
        assert printed[-1].startswith("cauchy_decreasing: ")


def test_production_transforms_are_half_spectra(tmp_path, monkeypatch, capsys):
    # every transform of a study is an rfft2/irfft2 called as a numpy.fft
    # attribute, where the benchmark's tracer sees it: no complex transform
    # and no 1-D or n-D one, which the tracer would not count
    def refuse(*args, **kwargs):
        raise AssertionError("a transform other than rfft2/irfft2 called")

    calls = {"rfft2": 0, "irfft2": 0}

    def counting(name):
        real = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("fft2", "ifft2", "rfft", "irfft", "fft", "ifft", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    small = BASE.replace("grid.N = 32", "grid.N = 16")
    for subcommand, head in (
            ("run", "study = single_run\n"),
            ("scan-theta", "study = theta_scan\nscan.amplitudes = 0.05,0.1\n"
                           "stepper.dt_mode = cfl\n"),
            ("xval", "study = cross_validate\n")):
        before = dict(calls)
        code, _ = cli(tmp_path, subcommand, head + small)
        assert code == 0, subcommand
        assert all(calls[n] > before[n] for n in calls), (subcommand, calls)
    capsys.readouterr()


def test_scan_theta_classifies_each_amplitude(tmp_path, capsys):
    text = ("study = theta_scan\nscan.amplitudes = 0.05,0.1\n"
            "stepper.dt_mode = cfl\n" + BASE)
    code, out = cli(tmp_path, "scan-theta", text)
    assert code == 0
    rows = csv_rows(out / "theta_scan.csv")
    assert [float(r["amplitude"]) for r in rows] == [0.05, 0.1]
    assert all(r["outcome"].startswith("completed_") for r in rows)
    theta = [float(r["theta0"]) for r in rows]
    assert theta[1] == pytest.approx(4 * theta[0], rel=1e-12)
    capsys.readouterr()


# --- config round trip -------------------------------------------------------

finite = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
fraction = st.floats(min_value=0.0, max_value=1.0)
width = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
signed = st.floats(min_value=-10.0, max_value=10.0)
small_int = st.integers(min_value=1, max_value=64)


def _join(items, sep=","):
    return sep.join(repr(x) for x in items)


@st.composite
def config_texts(draw):
    dt = draw(finite)
    lines = {
        "study": draw(st.sampled_from(STUDIES)),
        "mode": draw(st.sampled_from(("transformed", "original"))),
        "out_dir": draw(st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True)),
        "threads": str(draw(small_int)),
        "grid.L": repr(draw(finite)),
        "grid.N": str(2 * draw(st.integers(min_value=4, max_value=64))),
        "params.mu": repr(draw(finite)),
        "params.chi": repr(draw(st.floats(min_value=0.0, max_value=1e3))),
        "recipe.kind": draw(st.sampled_from(RECIPE_KINDS)),
        "recipe.amplitude": repr(draw(signed)),
        "recipe.p0": repr(draw(st.floats(min_value=4.001, max_value=100.0))),
        "recipe.delta": draw(st.one_of(
            st.integers(min_value=0, max_value=8).map(lambda n: f"{n}h"),
            st.floats(min_value=0.0, max_value=5.0).map(repr))),
        "recipe.seed": str(draw(st.integers(min_value=0, max_value=2 ** 31))),
        "recipe.random_disks": str(draw(st.integers(min_value=0, max_value=9))),
        "recipe.bump_center": _join(draw(st.tuples(fraction, fraction))),
        "recipe.bump_sharpness": repr(draw(finite)),
        "stepper.scheme": draw(st.sampled_from(("imex_be", "imex_cn"))),
        "stepper.dt": repr(dt),
        "stepper.t_end": repr(dt * draw(st.floats(min_value=1.0, max_value=1e3))),
        "stepper.dt_mode": draw(st.sampled_from(("fixed", "cfl"))),
        "stepper.cfl_number": repr(draw(st.floats(min_value=1e-3, max_value=1.0))),
        "stepper.record_every": str(draw(small_int)),
    }
    optional = {
        "recipe.disks": st.lists(st.tuples(fraction, fraction, finite, signed),
                                 min_size=1, max_size=3).map(
            lambda ds: "; ".join(_join(d) for d in ds)),
        "recipe.stripes": st.lists(st.tuples(fraction, width, signed),
                                   min_size=1, max_size=3).map(
            lambda ss: "; ".join(_join(s) for s in ss)),
        "recipe.modes": st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                           signed, signed),
                                 min_size=1, max_size=3).map(
            lambda ms: "; ".join(_join(m) for m in ms)),
        "snapshot_times": st.lists(finite, min_size=1, max_size=4).map(_join),
        "sweep.deltas": st.lists(st.one_of(
            st.integers(min_value=1, max_value=8).map(lambda n: f"{n}h"),
            finite.map(repr)), min_size=1, max_size=4).map(",".join),
        "xval.n_list": st.lists(st.integers(min_value=4, max_value=256).map(
                                    lambda n: 2 * n),
                                min_size=1, max_size=4, unique=True).map(
            lambda ns: ",".join(map(str, ns))),
        "refine.dt_list": st.lists(finite, min_size=1, max_size=4).map(_join),
        "scan.amplitudes": st.lists(signed, min_size=1, max_size=4).map(_join),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            lines[key] = draw(strategy)
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


@settings(max_examples=30, deadline=None)
@given(config_texts())
def test_config_round_trip(text):
    cfg = parse_config(text)
    echo = format_config(cfg)
    assert parse_config(echo) == cfg
    assert format_config(parse_config(echo)) == echo
