"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

Nothing in the program is modified: `Tracer.wrap` replaces a module or class
attribute with a timing wrapper and `Tracer.uninstall` puts the original back.
Each call of a wrapped boundary appends one span

    [name, start, end, parent, tag, nbytes]

where ``parent`` is the index of the enclosing span (-1 at top level), ``tag``
is a label such as the stepper mode, and ``nbytes`` is a computed byte count
(FFT input plus output, snapshot file size, or field-history size).  Spans
stay in memory until the run ends.

The program is single-threaded (``threads = 1``), so spans nest properly and
a span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time

FFT_FUNCTIONS = ("fft2", "ifft2", "rfft2", "irfft2")

# Name and unit of every per-layer metric the traced run derives.  The
# `per_layer` list of BENCHMARK.json names the subset that is present on
# every workload; the rest (times of layers that only one workload runs)
# are printed but left out of the JSON result.
LAYER_UNITS = {
    "evolve.steps": "count",
    "evolve.step_ms": "ms",
    "evolve.step_ms.transformed": "ms",
    "evolve.step_ms.original": "ms",
    "evolve.fft_per_step": "count",
    "evolve.fft_mb_per_step": "MB",
    "diagnostics.records": "count",
    "diagnostics.record_ms": "ms",
    "diagnostics.fft_per_record": "count",
    "diagnostics.record_share": "ratio",
    "diagnostics.on_node_us": "us",
    "fft.calls": "count",
    "fft.busy_s": "s",
    "fft.busy_share": "ratio",
    "fft.us_per_call": "us",
    "initial_data.builds": "count",
    "initial_data.build_ms": "ms",
    "cole_hopf.forward_calls": "count",
    "cole_hopf.forward_ms": "ms",
    "harness.parse_ms": "ms",
    "harness.self_s": "s",
    "harness.csv_write_ms": "ms",
    "harness.history_mb": "MB",
    "snapshots.writes": "count",
    "snapshots.write_ms": "ms",
    "snapshots.mb_written": "MB",
    "trace.overhead_s": "s",
}

NAME, START, END, PARENT, TAG, NBYTES = range(6)


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def traced(self, fn, name: str, note=None):
        """``fn`` wrapped so that each call records a span.

        ``note(args, kwargs, result)`` may return ``(tag, nbytes)`` for the
        span; it runs after the span's end time is taken.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[TAG], rec[NBYTES] = note(args, kwargs, out)
            return out

        return wrapper

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by its traced version until `uninstall`."""
        orig = getattr(owner, attr)
        setattr(owner, attr, self.traced(orig, name, note))
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _fft_note(args, kwargs, out):
    return None, getattr(args[0], "nbytes", 0) + out.nbytes


def _run_note(args, kwargs, traj):
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "transformed")
    history = getattr(traj, "field_history", None) or ()
    nbytes = 0
    for state in history:
        for field in (state.u, getattr(state, "v", None), getattr(state, "c", None)):
            if field is not None:
                nbytes += field.values.nbytes
    return mode, nbytes


def _snapshot_note(args, kwargs, out):
    return None, os.path.getsize(args[0])


def install_chemoflux(tracer: Tracer) -> list:
    """Wrap the public chemoflux boundaries the benchmark traces.

    Returns the boundaries that could not be found, so that a refactor that
    moves one shows up in the report instead of silently reading zero.
    """
    import numpy.fft

    from chemoflux import diagnostics, harness

    targets = [
        (harness, "run", "evolve.run", _run_note),
        (diagnostics.TrajectoryRecorder, "make_record", "diagnostics.make_record", None),
        (diagnostics.TrajectoryRecorder, "on_node", "diagnostics.on_node", None),
        (harness, "build_initial_data", "initial_data.build", None),
        (harness, "forward_transform", "cole_hopf.forward", None),
        (harness, "write_snapshot", "snapshots.write", _snapshot_note),
        (harness, "write_diagnostics_csv", "harness.write_diagnostics_csv", None),
        (harness, "load_config", "harness.load_config", None),
    ] + [(numpy.fft, f, "fft." + f, _fft_note) for f in FFT_FUNCTIONS]
    missing = []
    for owner, attr, name, note in targets:
        if hasattr(owner, attr):
            tracer.wrap(owner, attr, name, note)
        else:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return missing


def self_times(spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, root: int = 0) -> dict:
    """Per-layer metrics (see LAYER_UNITS) from the spans of one study.

    ``root`` is the index of the span covering the whole study.  Per-call
    means of a layer that never ran read 0.
    """
    dur = [s[END] - s[START] for s in spans]
    selfs = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    runs = by_name.get("evolve.run", [])
    run_index = set(runs)
    nodes = {i: 0 for i in runs}           # a run visits steps + 1 nodes
    step_time = {i: dur[i] for i in runs}  # run time less diagnostics
    fft_under = {"evolve.run": [0, 0], "diagnostics.make_record": [0, 0]}
    fft_calls = 0
    fft_busy = 0.0
    for i, s in enumerate(spans):
        name, parent = s[NAME], s[PARENT]
        if name.startswith("fft."):
            fft_calls += 1
            fft_busy += dur[i]
            if parent >= 0 and spans[parent][NAME] in fft_under:
                acc = fft_under[spans[parent][NAME]]
                acc[0] += 1
                acc[1] += s[NBYTES]
        elif parent in run_index and name in ("diagnostics.make_record",
                                              "diagnostics.on_node"):
            step_time[parent] -= dur[i]
            if name == "diagnostics.on_node":
                nodes[parent] += 1
    steps = {i: max(n - 1, 0) for i, n in nodes.items()}

    def step_ms(mode=None):
        chosen = [i for i in runs if mode is None or spans[i][TAG] == mode]
        return 1e3 * _ratio(sum(step_time[i] for i in chosen),
                            sum(steps[i] for i in chosen))

    n_steps = sum(steps.values())
    n_records = count("diagnostics.make_record")
    study_s = dur[root]
    return {
        "evolve.steps": n_steps,
        "evolve.step_ms": step_ms(),
        "evolve.step_ms.transformed": step_ms("transformed"),
        "evolve.step_ms.original": step_ms("original"),
        "evolve.fft_per_step": _ratio(fft_under["evolve.run"][0], n_steps),
        "evolve.fft_mb_per_step": _ratio(fft_under["evolve.run"][1], n_steps) / 1e6,
        "diagnostics.records": n_records,
        "diagnostics.record_ms": 1e3 * _ratio(total("diagnostics.make_record"), n_records),
        "diagnostics.fft_per_record": _ratio(fft_under["diagnostics.make_record"][0],
                                             n_records),
        "diagnostics.record_share": _ratio(total("diagnostics.make_record"),
                                           total("evolve.run")),
        "diagnostics.on_node_us": 1e6 * _ratio(total("diagnostics.on_node"),
                                               count("diagnostics.on_node")),
        "fft.calls": fft_calls,
        "fft.busy_s": fft_busy,
        "fft.busy_share": _ratio(fft_busy, study_s),
        "fft.us_per_call": 1e6 * _ratio(fft_busy, fft_calls),
        "initial_data.builds": count("initial_data.build"),
        "initial_data.build_ms": 1e3 * _ratio(total("initial_data.build"),
                                              count("initial_data.build")),
        "cole_hopf.forward_calls": count("cole_hopf.forward"),
        "cole_hopf.forward_ms": 1e3 * _ratio(total("cole_hopf.forward"),
                                             count("cole_hopf.forward")),
        "harness.parse_ms": 1e3 * total("harness.load_config"),
        "harness.self_s": selfs[root],
        "harness.csv_write_ms": 1e3 * total("harness.write_diagnostics_csv"),
        "harness.history_mb": sum(spans[i][NBYTES] for i in runs) / 1e6,
        "snapshots.writes": count("snapshots.write"),
        "snapshots.write_ms": 1e3 * _ratio(total("snapshots.write"),
                                           count("snapshots.write")),
        "snapshots.mb_written": sum(spans[i][NBYTES]
                                    for i in by_name.get("snapshots.write", ())) / 1e6,
    }
