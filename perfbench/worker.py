"""Run one workload once, in this fresh process, and write a JSON result.

    python3 perfbench/worker.py WORKLOAD SEED CONFIG OUT_DIR TRACE RESULT_JSON

Clocks start at the first statement, before chemoflux (and NumPy) are
imported, so ``setup_s`` counts the import.  With TRACE 0 only
``harness.run`` is wrapped, to note when stepping first starts; with TRACE 1
every boundary in ``tracing.install_chemoflux`` is wrapped and the spans are
written to spans.json next to RESULT_JSON.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    name, seed, config, out, trace, result_path = argv
    workload, seed, out = WORKLOADS[name], int(seed), Path(out)
    tracer = tracing.Tracer()
    missing = []
    exit_code, error = None, None
    try:
        from chemoflux import cli, harness

        if trace == "1":
            missing = tracing.install_chemoflux(tracer)
        elif hasattr(harness, "run"):
            tracer.wrap(harness, "run", "evolve.run")
        argv = [workload.subcommand, "--config", config, "--out", str(out)]
        with redirect_stdout(io.StringIO()):
            exit_code = tracer.traced(cli.main, "study")(argv)
    except Exception:  # the study failed: count it as failed runs
        error = traceback.format_exc()
    finally:
        t_end = time.perf_counter()
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = [s for s in tracer.spans if s[tracing.NAME] == "evolve.run"]
    attempted, failed, problems = workload.verify(out, seed, exit_code, error)
    result = {
        "wall_s": t_end - T0,
        "setup_s": (runs[0][tracing.START] if runs else t_end) - T0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if trace == "1":
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["missing_boundaries"] = missing
        with open(Path(result_path).with_name("spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
