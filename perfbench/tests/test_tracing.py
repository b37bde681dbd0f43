"""Self-tests of the span tracer and the per-layer arithmetic.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import types
from pathlib import Path

import numpy as np
import numpy.fft
import pytest

import tracing
from tracing import END, NAME, NBYTES, PARENT, START, TAG, Tracer

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1, tag=None, nbytes=0):
    return [name, start, end, parent, tag, nbytes]


def test_self_time_of_nested_spans():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == spans[0][END] - spans[0][START]


def test_tracer_records_parents_and_removes_wrappers():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(ns.inner(x))
    originals = (ns.inner, ns.outer)
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer", note=lambda a, k, out: ("tagged", out))
    assert tracer.traced(ns.outer, "root")(1) == 3
    tracer.uninstall()
    assert (ns.inner, ns.outer) == originals
    names = [s[NAME] for s in tracer.spans]
    assert names == ["root", "outer", "inner", "inner"]
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1, 1]
    assert tracer.spans[1][TAG] == "tagged" and tracer.spans[1][NBYTES] == 3
    # ticks: root 0..7, outer 1..6, inner 2..3 and 4..5
    assert tracing.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def test_span_closed_when_the_wrapped_call_raises():
    tracer = Tracer()
    ns = types.SimpleNamespace(f=lambda: 1 / 0)
    tracer.wrap(ns, "f", "f")
    with pytest.raises(ZeroDivisionError):
        tracer.traced(ns.f, "root")()
    tracer.uninstall()
    assert all(s[END] >= s[START] > 0 for s in tracer.spans)
    assert tracer._stack == []


def test_layer_metrics_on_synthetic_spans():
    spans = [
        span("study", 0.0, 20.0),
        span("harness.load_config", 0.0, 0.5, parent=0),
        span("initial_data.build", 0.5, 1.5, parent=0),
        span("fft.fft2", 0.6, 0.8, parent=2, nbytes=100),
        span("evolve.run", 2.0, 12.0, parent=0, tag="transformed"),
        span("diagnostics.on_node", 2.0, 2.5, parent=4),          # node t = 0
        span("diagnostics.make_record", 2.5, 4.5, parent=4),
        span("fft.fft2", 3.0, 3.5, parent=6, nbytes=10),
        span("fft.ifft2", 3.5, 4.0, parent=6, nbytes=20),
        span("fft.fft2", 5.0, 6.0, parent=4, nbytes=1000),       # a step
        span("diagnostics.on_node", 6.0, 6.5, parent=4),
        span("fft.ifft2", 7.0, 8.0, parent=4, nbytes=3000),      # a step
        span("diagnostics.on_node", 8.0, 8.5, parent=4),
        span("diagnostics.make_record", 8.5, 10.5, parent=4),
        span("fft.fft2", 9.0, 10.0, parent=13, nbytes=10),
    ]
    m = tracing.layer_metrics(spans)
    assert m["evolve.steps"] == 2
    # run 10 s, less 3 on_node (1.5 s) and 2 make_record (4 s), over 2 steps
    assert m["evolve.step_ms"] == pytest.approx(2250.0)
    assert m["evolve.step_ms.transformed"] == pytest.approx(2250.0)
    assert m["evolve.step_ms.original"] == 0.0
    assert m["evolve.fft_per_step"] == 1.0
    assert m["evolve.fft_mb_per_step"] == pytest.approx(2000 / 1e6)
    assert m["diagnostics.records"] == 2
    assert m["diagnostics.record_ms"] == pytest.approx(2000.0)
    assert m["diagnostics.fft_per_record"] == 1.5
    assert m["diagnostics.record_share"] == pytest.approx(0.4)
    assert m["diagnostics.on_node_us"] == pytest.approx(5e5)
    assert m["fft.calls"] == 6
    assert m["fft.busy_s"] == pytest.approx(4.2)
    assert m["fft.busy_share"] == pytest.approx(4.2 / 20)
    assert m["initial_data.builds"] == 1
    assert m["initial_data.build_ms"] == pytest.approx(1000.0)
    assert m["harness.parse_ms"] == pytest.approx(500.0)
    # study 20 s less load_config 0.5, build 1 and run 10
    assert m["harness.self_s"] == pytest.approx(8.5)
    assert m["snapshots.writes"] == 0 and m["cole_hopf.forward_ms"] == 0.0
    assert set(m) == set(tracing.LAYER_UNITS) - {"trace.overhead_s"}


def test_fft_wrappers_count_calls_and_bytes_by_hand():
    n = 16
    a = np.random.default_rng(0).standard_normal((n, n))
    tracer = Tracer()
    originals = {f: getattr(numpy.fft, f) for f in tracing.FFT_FUNCTIONS}
    missing = tracing.install_chemoflux(tracer)
    try:
        ah = np.fft.fft2(a)
        np.fft.ifft2(ah)
        rh = np.fft.rfft2(a)
        np.fft.irfft2(rh, s=a.shape)
    finally:
        tracer.uninstall()
    assert missing == []
    assert {f: getattr(numpy.fft, f) for f in originals} == originals
    real, cplx, half = 8 * n * n, 16 * n * n, 16 * n * (n // 2 + 1)
    assert [(s[NAME], s[NBYTES]) for s in tracer.spans] == [
        ("fft.fft2", real + cplx),
        ("fft.ifft2", cplx + cplx),
        ("fft.rfft2", real + half),
        ("fft.irfft2", half + real),
    ]


def test_traced_n16_run_matches_an_independent_count(tmp_path):
    """Counts on a real run agree with a plain counter and with the schedule."""
    from chemoflux import cli, diagnostics, harness

    seen = []

    def counting(fn):
        def inner(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            seen.append(a.nbytes + out.nbytes)
            return out
        return inner

    boundaries = [(harness, a) for a in ("run", "build_initial_data", "forward_transform",
                                         "write_snapshot", "write_diagnostics_csv",
                                         "load_config")]
    boundaries += [(diagnostics.TrajectoryRecorder, "make_record"),
                   (diagnostics.TrajectoryRecorder, "on_node")]
    before = [getattr(o, a) for o, a in boundaries]
    saved = {f: getattr(numpy.fft, f) for f in tracing.FFT_FUNCTIONS}
    for f, fn in saved.items():
        setattr(numpy.fft, f, counting(fn))
    config = tmp_path / "n16.cfg"
    config.write_text("study = single_run\ngrid.N = 16\nrecipe.kind = smooth_bump\n"
                      "recipe.amplitude = 0.05\nrecipe.modes = 1,0,1.0,0.0\n"
                      "stepper.dt = 0.01\nstepper.t_end = 0.05\n"
                      "stepper.record_every = 2\nsnapshot_times = 0.04\n")
    tracer = Tracer()
    try:
        assert tracing.install_chemoflux(tracer) == []
        code = tracer.traced(cli.main, "study")(["run", "--config", str(config),
                                                 "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
        for f, fn in saved.items():
            setattr(numpy.fft, f, fn)
    assert code == 0
    assert [getattr(o, a) for o, a in boundaries] == before
    m = tracing.layer_metrics(tracer.spans)
    assert m["fft.calls"] == len(seen) > 0
    ffts = [s for s in tracer.spans if s[NAME].startswith("fft.")]
    assert [s[NBYTES] for s in ffts] == seen
    # fixed dt 0.01 to t = 0.05, a record at t = 0 and every second step
    # plus the final one
    assert m["evolve.steps"] == 5
    assert m["diagnostics.records"] == 4
    assert m["initial_data.builds"] == 1
    assert m["snapshots.writes"] == 1
    assert m["snapshots.mb_written"] == pytest.approx((16 + 3 * 8 * 16 * 16) / 1e6)


def test_benchmark_json_metrics_are_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        assert tracing.LAYER_UNITS[metric["name"]] == metric["unit"]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s",
                                                       "peak_rss_mb"]
