"""Golden-CSV gate: fixed small configs must reproduce their checked-in rows.

Each ``tests/golden/<name>.cfg`` is an N=32 ``single_run``; the matching
``<name>.csv`` is its diagnostics file.  Its first line, the schema line, is
``# SCHEMA_VERSION`` as the program writes it.  Every physical column must
agree to 1e-10 relative (entries below 1e-6 of the column's largest
magnitude are compared against that floor).  The flux-identity residuals
are round-off, about 1e-16, whose digits any change in the order of
floating-point operations moves by O(1) relative; they are checked only by
the absolute machine-precision bound.
"""

from pathlib import Path

import pytest

from chemoflux.diagnostics import CSV_COLUMNS, SCHEMA_VERSION
from chemoflux.harness import load_config, run_single

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-10
RESIDUALS = ("flux_div_residual", "flux_curl_residual")


def read_rows(path):
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [[float(x) for x in ln.split(",")] for ln in lines[1:]]


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.cfg")))
def test_diagnostics_match_golden(tmp_path, name):
    run_single(load_config(GOLDEN / f"{name}.cfg"), out_dir=tmp_path)
    header, rows = read_rows(tmp_path / "diagnostics.csv")
    gold_header, gold = read_rows(GOLDEN / f"{name}.csv")
    for path in (tmp_path / "diagnostics.csv", GOLDEN / f"{name}.csv"):
        assert path.read_text().splitlines()[0] == f"# {SCHEMA_VERSION}"
    assert header == gold_header == list(CSV_COLUMNS)
    assert len(rows) == len(gold)
    for j, col in enumerate(header):
        if col in RESIDUALS:
            continue
        floor = 1e-6 * max(abs(r[j]) for r in gold)
        for row, ref in zip(rows, gold):
            assert abs(row[j] - ref[j]) <= RTOL * max(abs(ref[j]), floor), \
                f"{name} {col} at t={row[0]}: {row[j]!r} vs {ref[j]!r}"
    for col in RESIDUALS:
        j = header.index(col)
        assert max(r[j] for r in rows) <= 1e-12
