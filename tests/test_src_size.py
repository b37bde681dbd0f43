"""``tools/src_size.py``, which reads the settings surface from the syntax
trees of ``src/chemoflux``, reports what the imported package declares."""

import importlib.util
import re
from pathlib import Path

import chemoflux
from chemoflux import StepperConfig, harness
from chemoflux.initial_data import RECIPE_KINDS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"


def run_tool(capsys) -> dict:
    """The tool's report on this tree: {line label: the text after it}, the
    module table's ``total`` row included."""
    spec = importlib.util.spec_from_file_location("src_size", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = {"total": next(ln.split()[1:] for ln in lines if ln.startswith("total"))}
    report |= dict(ln.split(": ", 1) for ln in lines if ": " in ln)
    return report


def test_src_size_counts_the_live_tables(capsys):
    report = run_tool(capsys)
    lines, docstring, comment, code = map(int, report["total"])
    assert lines > docstring + comment + code > 0

    keys = [row[0] for row in harness._SCHEMA]
    assert re.match(rf"{len(keys)} config keys \(harness._SCHEMA\), 5 CLI options",
                    report["settings"])

    # a key is accepted by a study when every study condition on it holds
    conditions = [(readers, names) for (setting, readers), names
                  in harness._READ_WHEN.items() if setting == "study"]
    accepted = {study: sum(all(study in readers for readers, names in conditions
                               if key in names) for key in keys)
                for study in harness.STUDIES}
    assert report["keys accepted"] == ", ".join(f"{study} {n}"
                                                for study, n in accepted.items())

    # one entry per recipe kind, then per dt mode that StepperConfig accepts
    dt_modes = ("fixed", "cfl")
    for mode in dt_modes:
        StepperConfig(dt=0.1, t_end=1.0, dt_mode=mode)
    entries = report["keys unread by recipe kind and dt mode"].split("; ")
    assert [e.split(" ", 1)[0] for e in entries] == [*RECIPE_KINDS, *dt_modes]

    reexported = [name for name in dir(chemoflux)
                  if not name.startswith("_")
                  and not isinstance(getattr(chemoflux, name), type(chemoflux))]
    assert report["re-exports"] == f"{len(reexported)} names (__init__.py)"
