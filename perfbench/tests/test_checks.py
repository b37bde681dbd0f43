"""Self-tests of the output checks that feed run_error_rate."""

import shutil
import struct

import pytest

import workloads
from workloads import WORKLOADS


def write_csv(path, header, rows):
    path.write_text("# chemoflux-diagnostics-v1\n" + ",".join(header) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))


def reference_rows():
    return workloads.read_csv(workloads.REFERENCE_DIR / "flagship_n256_seed0.csv")


def write_rows(path, rows):
    header = list(rows[0])
    write_csv(path, header, [[r[c] for c in header] for r in rows])


def write_snapshot(path, n=workloads.FLAGSHIP_N, count=3):
    path.write_bytes(struct.pack("<4sIII", b"CFX1", n, count, 0)
                     + bytes(8 * count * n * n))


def flagship_outputs(tmp_path, rows):
    write_rows(tmp_path / "diagnostics.csv", rows)
    for t in workloads.SNAPSHOT_TIMES:
        write_snapshot(tmp_path / f"snapshot_{t:.6f}.cfx")
    return tmp_path


def test_reference_matches_itself_and_is_at_the_flagship_horizon(tmp_path):
    rows = reference_rows()
    out = flagship_outputs(tmp_path, rows)
    assert WORKLOADS["flagship_n256"].verify(out, workloads.DEFAULT_SEED, 0, None) \
        == (1, 0, [])


@pytest.mark.parametrize("rel, ok", [(1e-10, True), (1e-6, False)])
def test_reference_comparison_is_relative(rel, ok):
    rows = reference_rows()
    changed = [dict(r) for r in rows]
    changed[3]["a1"] = repr(float(rows[3]["a1"]) * (1 + rel))
    assert (workloads.compare_to_reference(changed, rows) == []) is ok


def test_residual_over_bound_fails_the_run(tmp_path):
    rows = [dict(r) for r in reference_rows()]
    rows[2]["flux_curl_residual"] = "2e-10"
    out = flagship_outputs(tmp_path, rows)
    attempted, failed, problems = WORKLOADS["flagship_n256"].verify(out, 5, 0, None)
    assert (attempted, failed) == (1, 1)
    assert "flux_curl_residual" in problems[0]


def test_snapshot_at_another_time_fails(tmp_path):
    out = flagship_outputs(tmp_path, reference_rows())
    first = f"snapshot_{workloads.SNAPSHOT_TIMES[0]:.6f}.cfx"
    moved = f"snapshot_{workloads.SNAPSHOT_TIMES[0] + 0.05:.6f}.cfx"
    shutil.move(out / first, out / moved)
    assert workloads.check_snapshots(out)
    write_snapshot(out / first, count=2)
    (out / moved).unlink()
    assert workloads.check_snapshots(out) == [f"{first}: bad header or size"]


def test_theta_counts_each_halted_member(tmp_path):
    header = ["amplitude", "theta0", "M", "outcome", "decayed", "a1", "a1_bound",
              "a1_ok", "lemma34_ok"]
    outcomes = ["completed_decay", "completed_no_decay", "blowup",
                "completed_decay", "chemical_extinction"]
    write_csv(tmp_path / "theta_scan.csv", header,
              [[a, 1, 1, o, 0, 1, 1, 1, 1]
               for a, o in zip(workloads.THETA_AMPLITUDES, outcomes)])
    attempted, failed, _ = WORKLOADS["theta_scan_n64"].verify(tmp_path, 1, 0, None)
    assert (attempted, failed) == (5, 2)


@pytest.mark.parametrize("du, failed", [(1e-6, 0), (1e-3, 2)])
def test_xval_discrepancy_bound(tmp_path, du, failed):
    write_csv(tmp_path / "cross_validate.csv",
              ["N", "dt", "max_u_discrepancy", "max_v_discrepancy"],
              [[128, 0.01, du, 1e-6]])
    assert WORKLOADS["xval_n128"].verify(tmp_path, 1, 0, None)[:2] == (2, failed)


def test_failed_study_counts_every_member(tmp_path):
    assert WORKLOADS["theta_scan_n64"].verify(tmp_path, 1, None, "Traceback")[:2] == (5, 5)
    assert WORKLOADS["xval_n128"].verify(tmp_path, 1, 10, None)[:2] == (2, 2)
    # missing outputs are a failure, not an exception
    assert WORKLOADS["flagship_n256"].verify(tmp_path, 1, 0, None)[:2] == (1, 1)


def test_seed_moves_the_layout_only():
    for w in WORKLOADS.values():
        a, b = w.config(1).splitlines(), w.config(2).splitlines()
        assert len(a) == len(b)
        differ = [x.split("=")[0].strip() for x, y in zip(a, b) if x != y]
        assert differ in (["recipe.disks"], ["recipe.seed"])
        assert w.config(3) == w.config(3)
