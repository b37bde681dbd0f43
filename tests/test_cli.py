import pytest

from chemoflux.cli import main

SMALL_RUN = """study = single_run
grid.L = 6.283185307179586
grid.N = 32
recipe.kind = piecewise_constant_disks
recipe.amplitude = 0.1
recipe.random_disks = 2
recipe.delta = 2h
stepper.dt = 0.05
stepper.t_end = 1.2
stepper.record_every = 7
threads = 1
"""


@pytest.mark.parametrize("which", ["missing", "directory", "not_utf8"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, which):
    path = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
            "not_utf8": tmp_path / "latin1.cfg"}[which]
    if which == "not_utf8":
        path.write_bytes(SMALL_RUN.encode() + b"# \xff\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()


def test_snapshot_files_named_by_requested_times(tmp_path, capsys):
    # 1.0 is a step end between records, 0.525 lies inside a step
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN + "snapshot_times = 1.0,0.525\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("snapshot_*.cfx")) == [
        "snapshot_0.525000.cfx", "snapshot_1.000000.cfx"]


@pytest.mark.parametrize("which", ["file", "under_a_file"])
def test_unusable_out_is_a_config_error(tmp_path, capsys, which):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUN)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken if which == "file" else taken / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'out': ") and str(out) in err
    assert err.count("\n") == 1
    assert taken.read_text() == "kept\n"
