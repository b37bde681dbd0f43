"""The five studies and every CLI subcommand at N <= 32, with their exit codes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoflux import harness
from chemoflux.cli import main
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

# grows without bound under backward Euler at dt = 0.9 and halts at t = 9
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
    assert "u_linf" in capsys.readouterr().err


def test_blowup_exits_10(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code, out = cli(tmp_path, "run", BLOWUP)
    assert code == 10
    printed = capsys.readouterr().out
    assert printed.startswith("outcome: blowup")
    halt_t = float(printed.split("at t=")[1].split(";")[0])
    assert 8.0 < halt_t < 10.0
    assert len(csv_rows(out / "diagnostics.csv")) >= 1


def test_extinction_at_start_exits_11(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code, out = cli(tmp_path, "run", "study = single_run\nmode = original\n"
                        + EXTINCT)
    assert code == 11
    captured = capsys.readouterr()
    assert captured.out.startswith("outcome: chemical_extinction  (0 records")
    assert "t=0" in captured.out and "Traceback" not in captured.err
    assert csv_rows(out / "diagnostics.csv") == []
    assert csv_rows(out / "decay_summary.csv") == []


def test_xval_of_extinct_chemical_is_a_config_error(tmp_path, capsys):
    with np.errstate(all="ignore"):
        code, _ = cli(tmp_path, "xval", "study = cross_validate\n" + EXTINCT)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'recipe'") and "floor" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    code, _ = cli(tmp_path, "run", BASE + "stepper.bogus = 1\n")
    assert code == 2
    assert "stepper.bogus" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "grid.N = 2.5e2", "params.mu = x", "stepper.dt = abc",
    "refine.n_list = 16.7,32", "xval.n_list = 16.7,32",   # not truncated to 16
    "stepper.dt = -1", "grid.N = 7", "recipe.kind = blob",  # parse, but out of range
])
def test_bad_value_exits_2_naming_its_key(tmp_path, capsys, line):
    key, value = line.split(" = ")
    code, _ = cli(tmp_path, "xval", "study = cross_validate\n" + BASE + line + "\n")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config field '{key}': ")
    assert value in err
    assert err.count("config field") == 1


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
    out2 = tmp_path / "threads2"
    assert main(["sweep-delta", "--config", str(tmp_path / "sweep-delta.cfg"),
                 "--out", str(out2), "--threads", "2"]) == 0
    assert (out2 / "delta_sweep.csv").read_bytes() == \
        (out / "delta_sweep.csv").read_bytes()


def test_refine_reports_second_order_in_time(tmp_path, capsys):
    text = ("study = refinement\nrefine.dt_list = 0.02,0.01,0.005\n"
            "refine.n_list = 8,16,32\n" + BASE.replace("stepper.t_end = 0.3",
                                                       "stepper.t_end = 0.2"))
    code, out = cli(tmp_path, "refine", text)
    assert code == 0
    rows = csv_rows(out / "refinement.csv")
    temporal = [r for r in rows if r["kind"] == "temporal"]
    spatial = [r for r in rows if r["kind"] == "spatial"]
    # each row compares a step size with the next smaller one
    assert [float(r["param"]) for r in temporal] == [0.02, 0.01]
    assert [int(r["param"]) for r in spatial] == [8, 16]
    assert 1.8 <= float(temporal[0]["order"]) <= 2.2     # IMEX-CN
    assert "temporal" in capsys.readouterr().out


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
    capsys.readouterr()


@pytest.mark.parametrize("skew,message", [
    ({"record_every": 2}, "same time"),      # a record between two of the other's
    ({"t_end": 0.1}, "no original record"),   # the other stops early
])
def test_xval_refuses_unmatched_records(tmp_path, monkeypatch, skew, message):
    # the two solvers' records are compared pairwise; a record of one
    # without a partner at the same time must not be skipped
    real_run = harness.run

    def skewed_run(u0, companion, cfg, params, mode="transformed", **kw):
        if mode == "original":
            cfg = replace(cfg, **skew)
        return real_run(u0, companion, cfg, params, mode=mode, **kw)

    monkeypatch.setattr(harness, "run", skewed_run)
    cfg = parse_config("study = cross_validate\n" + BASE)
    with pytest.raises(RuntimeError, match=message):
        harness.run_cross_validate(cfg, out_dir=tmp_path)


def test_production_transforms_are_half_spectra(tmp_path, monkeypatch, capsys):
    # every transform of a study is an rfft2/irfft2 called as a numpy.fft
    # attribute, where the benchmark's tracer sees it
    def refuse(*args, **kwargs):
        raise AssertionError("complex fft2/ifft2 called")

    calls = {"rfft2": 0, "irfft2": 0}

    def counting(name):
        real = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fft2", refuse)
    monkeypatch.setattr(np.fft, "ifft2", refuse)
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
signed = st.floats(min_value=-10.0, max_value=10.0)
small_int = st.integers(min_value=1, max_value=64)


def _join(items, sep=","):
    return sep.join(repr(x) for x in items)


@st.composite
def config_texts(draw):
    mu, xi = draw(finite), draw(st.floats(min_value=0.0, max_value=10.0))
    dt = draw(finite)
    lines = {
        "study": draw(st.sampled_from(STUDIES)),
        "mode": draw(st.sampled_from(("transformed", "original"))),
        "out_dir": draw(st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True)),
        "threads": str(draw(small_int)),
        "grid.L": repr(draw(finite)),
        "grid.N": str(2 * draw(st.integers(min_value=4, max_value=64))),
        "params.mu": repr(mu),
        "params.xi": repr(xi),
        "params.chi": repr(mu * xi),
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
        "recipe.stripes": st.lists(st.tuples(fraction, fraction, signed),
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
        "xval.n_list": st.lists(st.integers(min_value=8, max_value=512),
                                min_size=1, max_size=4).map(
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
