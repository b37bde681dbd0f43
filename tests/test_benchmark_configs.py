"""The configs that the benchmark runs parse, under the subcommand that runs
them, and echo only what their runs read: each ``perfbench/workloads.py``
config at seeds 0-5 and each ``tests/golden/*.cfg``, which
``tools/same_outputs.py`` runs beside the workloads."""

import sys
from pathlib import Path

import pytest

from chemoflux.cli import STUDY_COMMANDS
from chemoflux.harness import format_config, parse_config

ROOT = Path(__file__).resolve().parents[1]

# perfbench/ is imported read-only: no __pycache__ is written into it
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(ROOT / "perfbench"))
    sys.dont_write_bytecode = _write_bytecode

CONFIGS = [pytest.param(w.subcommand, w.config(seed), id=f"{w.name}-seed{seed}")
           for w in WORKLOADS.values() for seed in range(6)] + [
    pytest.param("run", path.read_text(), id=f"golden-{path.stem}")
    for path in sorted((ROOT / "tests" / "golden").glob("*.cfg"))]


@pytest.mark.parametrize("subcommand,text", CONFIGS)
def test_benchmark_config_echoes_only_what_its_run_reads(subcommand, text):
    # parse_config refuses a key that the run does not read, so an echo that
    # parses back to the same config holds no such key
    cfg = parse_config(text)
    assert (subcommand, cfg.study) in {c[:2] for c in STUDY_COMMANDS}
    assert parse_config(format_config(cfg)) == cfg
