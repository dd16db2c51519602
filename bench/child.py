"""One measured step of the benchmark, run in a fresh interpreter.

Usage: python3 bench/child.py <mode> '<json options>'

Modes:
  setup    import affectpipe, load_config and build_pipeline; time all three
  iterate  setup, then `affectpipe synth` and `affectpipe run` in-process
           through cli.main, each bracketed by timings of a fixed
           reference kernel (see reference_seconds)
  run      `affectpipe run` only, untraced (the baseline for tracing overhead)
  traced   as iterate, with every stage and kernel wrapped by
           bench/tracer.py; the trace is written to options["trace_file"]

The last line of standard output is one JSON object with the results.
The configuration and data paths come from bench/run.py.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _import_affectpipe(root):
    import affectpipe

    expected = Path(root, "src", "affectpipe").resolve()
    if Path(affectpipe.__file__).resolve().parent != expected:
        raise SystemExit(f"imported affectpipe from {affectpipe.__file__}, "
                         f"expected the checkout's {expected}")


def _setup(config_path):
    from affectpipe import config, engine

    doc = config.load_config(config_path)
    return engine.build_pipeline(config.build_pipeline_spec(doc))


def _cli(args):
    """Run one CLI command; returns (exit code, seconds, captured output)."""
    from affectpipe import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        rc = cli.main(args)
        seconds = time.perf_counter() - t0
    return rc, seconds, captured.getvalue()


def _synth_args(o):
    return ["synth", o["spec"], o["data"], "--seed", str(o["seed"])]


def _run_args(o):
    return ["run", o["config"], "--out", o["out"]]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def _reference_kernel():
    """A fixed mix of the work the pipeline does: str and float parsing in
    pure Python, and numpy sort, FFT and elementwise passes over 4 MB."""
    import numpy as np

    rows = [f"{i},{i * 0.001!r},x" for i in range(20_000)]
    total = sum(float(line.split(",")[1]) for line in rows)
    a = np.random.default_rng(0).standard_normal(500_000)
    np.sort(a)
    np.fft.rfft(a)
    np.cumsum(a * 2.0 + 1.0)
    return total


def reference_seconds(reps=3):
    """Wall times of `reps` runs of the reference kernel.

    The host's speed drifts by up to 2x over minutes, so the benchmark
    divides each step's wall time by the median of the kernel's times just
    before and just after the step: the ratio cancels the drift."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


def setup(o):
    t0 = time.perf_counter()
    _import_affectpipe(o["root"])
    _setup(o["config"])
    return {"setup_s": time.perf_counter() - t0}


def iterate(o):
    result = setup(o)
    before_synth = reference_seconds()
    synth_rc, synth_s, synth_out = _cli(_synth_args(o))
    before_run = reference_seconds()
    result.update(synth_rc=synth_rc, synth_s=synth_s,
                  synth_ref_s=statistics.median(before_synth + before_run))
    if synth_rc != 0:
        return dict(result, output=synth_out[-2000:])
    run_rc, run_s, run_out = _cli(_run_args(o))
    peak_rss_mb = _peak_rss_mb()
    after_run = reference_seconds()
    return dict(result, run_rc=run_rc, run_s=run_s, peak_rss_mb=peak_rss_mb,
                run_ref_s=statistics.median(before_run + after_run),
                output=run_out[-2000:] if run_rc else "")


def run(o):
    _import_affectpipe(o["root"])
    run_rc, run_s, run_out = _cli(_run_args(o))
    return {"run_rc": run_rc, "run_s": run_s,
            "output": run_out[-2000:] if run_rc else ""}


def traced(o):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer, install

    tracer = Tracer()
    tracer.call("bench.import", _import_affectpipe, o["root"])
    install(tracer)
    tracer.call("bench.setup", _setup, o["config"])
    synth_rc, _, synth_out = tracer.call("bench.synth", _cli, _synth_args(o))
    result = {"synth_rc": synth_rc}
    if synth_rc == 0:
        run_rc, _, run_out = tracer.call("bench.run", _cli, _run_args(o))
        result.update(run_rc=run_rc, output=run_out[-2000:] if run_rc else "")
    else:
        result["output"] = synth_out[-2000:]
    trace = dict(tracer.dump(), self_s=tracer.self_seconds())
    Path(o["trace_file"]).write_text(json.dumps(trace), encoding="utf-8")
    return result


MODES = {"setup": setup, "iterate": iterate, "run": run, "traced": traced}

if __name__ == "__main__":
    mode, options = sys.argv[1], json.loads(sys.argv[2])
    print(json.dumps(MODES[mode](options)))
