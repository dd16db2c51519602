#!/usr/bin/env python3
"""The affectpipe benchmark: the README quick start, timed per workload.

Run from the repository root:

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it measures phase-loso and questionnaire-sfs, one after
another.

Each iteration is `affectpipe synth <spec> <dir>` then
`affectpipe run <config> --out <dir>`, in a fresh child process
(bench/child.py) with BLAS and OpenMP pinned to one thread. Load is closed
loop with one client: iterations run one after another, and a new one starts
only if it should end within --seconds, judged by the one before it; at
least one runs. --seed sets the generated dataset (the
program sees only the generated files); by default it is the seed of the
shipped spec the workload copies.

--trace 0 reports the end-to-end metrics, each the median over the run:
  setup_s      fresh interpreter: import affectpipe, load_config, build_pipeline
  synth_rel    wall time of `affectpipe synth` (the write path), divided by
               the reference kernel's time around it
  run_rel      wall time of `affectpipe run`, report writes included, divided
               by the reference kernel's time around it
  peak_rss_mb  peak resident memory of the iteration's child process
The reference kernel (bench/child.py) is a fixed mix of pure-Python parsing
and numpy work, timed three times just before and three times just after each
step in the same process. The shared host's speed drifts by up to 2x over
minutes, which moves raw wall times by more than any bound could allow;
the ratio cancels the drift, and falls in proportion to the program's own
time. The raw wall times, synth_s and run_s, are printed alongside, as is
the error rate (failed / attempted iterations). An iteration fails on a
nonzero exit, an exception or a failed output check: report.csv must parse
with a row for every model x fold x metric, every model's mean accuracy must
be above chance, and report.csv must be byte-identical across iterations.

--trace 1 runs traced iterations instead: bench/tracer.py wraps every stage
and named kernel from outside, and each traced `run` is followed by an
untraced `run` on the same files to measure tracing overhead. It reports the
per-layer metrics listed in bench/layers.json, fails when a kernel that
should fire on the workload recorded no call, and writes the spans to
.bench_run/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

# Kernels and stages every workload must reach; a zero call count means a
# wrapper missed a module binding, not that the work vanished.
ALWAYS_FIRE = (
    "config.load_config", "engine.build_pipeline", "synth.synth_dataset",
    "synth.synth_ecg", "synth.synth_eda", "acquisition.write_csv_signal",
    "acquisition.scan_dataset", "acquisition.load_csv_signal",
    "engine.Acquisition", "engine.Preprocessor", "engine.FeatureExtractor",
    "engine.LabelGenerator", "engine.Classification",
    "preprocessing.design_butterworth", "preprocessing.apply_zero_phase",
    "features.segment", "types.validate_time_series",
    "types.FeatureMatrix.to_array", "labels.attach_labels",
    "classification.cross_validate", "classification.fit",
    "classification.predict", "classification._knn_scores",
    "classification._grow_tree",
)
DEFAULT_CATALOG_FIRES = ("features.detect_r_peaks", "features.scr_events")
SELECTION_FIRES = ("engine.FeatureSelector", "labels.sequential_forward_selection")


@dataclass(frozen=True)
class Workload:
    spec: str            # dataset spec under bench/workloads
    config: str          # pipeline config under bench/workloads
    default_seed: int
    n_classes: int
    must_fire: tuple


WORKLOADS = {
    # the paper's headline pipeline as shipped: small files, so the
    # per-window feature kernels carry the run
    "phase-loso": Workload("phase-loso.spec.yaml", "phase-loso.config.yaml",
                           3, 3, ALWAYS_FIRE + DEFAULT_CATALOG_FIRES),
    # 1216 rows of stats-only features: label attachment, selection and
    # the classifier kernels do the work; no R-peak, SCR or HRV kernel runs
    "questionnaire-sfs": Workload("questionnaire-sfs.spec.yaml",
                                  "questionnaire-sfs.config.yaml",
                                  0, 2, ALWAYS_FIRE + SELECTION_FIRES),
}

STAGES = ("Acquisition", "Preprocessor", "FeatureExtractor", "LabelGenerator",
          "FeatureSelector", "Classification")
END_TO_END_UNITS = {"setup_s": "s", "synth_rel": "x", "run_rel": "x",
                    "peak_rss_mb": "MB"}
RAW_UNITS = {"synth_s": "s", "run_s": "s"}


def log(*parts):
    print(*parts, flush=True)


# -- child processes ------------------------------------------------------------

def child(mode, **options):
    """Run bench/child.py; returns its JSON result, or raises RuntimeError."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    options["root"] = str(ROOT)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode, json.dumps(options)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode}: no result within {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode}: no result printed")
    return json.loads(lines[-1])


def check_exit(result):
    for key in ("synth_rc", "run_rc"):
        if key in result and result[key] != 0:
            raise RuntimeError(f"{key}={result[key]}: {result.get('output', '')}")


# -- output check -----------------------------------------------------------------

def check_report(report: bytes, doc: dict, n_classes: int, n_subjects: int):
    """Raise RuntimeError unless report.csv is complete and above chance."""
    rows = list(csv.DictReader(io.StringIO(report.decode("utf-8"))))
    if not rows or set(rows[0]) != {"model", "fold", "metric", "value"}:
        raise RuntimeError("report.csv lacks the model,fold,metric,value header")
    cv = doc.get("cv", {})
    n_folds = n_subjects if cv.get("kind") == "loso" else int(cv.get("folds", 5))
    folds = {str(i) for i in range(n_folds)} | {"mean", "std"}
    cells = {}
    for row in rows:
        cells[(row["model"], row["fold"], row["metric"])] = float(row["value"])
    for model in [c["name"] for c in doc["classifiers"]]:
        metrics = {m for (name, _, m) in cells if name == model}
        if "accuracy" not in metrics:
            raise RuntimeError(f"no accuracy rows for model {model}")
        missing = [(model, f, m) for f in sorted(folds) for m in sorted(metrics)
                   if (model, f, m) not in cells]
        if missing:
            raise RuntimeError(f"report.csv lacks rows {missing[:5]}")
        accuracy = cells[(model, "mean", "accuracy")]
        if not accuracy > 1.0 / n_classes:
            raise RuntimeError(f"{model} mean accuracy {accuracy} is not above "
                               f"chance 1/{n_classes}")
    extra = {f for (_, f, _) in cells} - folds
    if extra:
        raise RuntimeError(f"report.csv has unexpected folds {sorted(extra)}")


class Iterations:
    """Output checks and failure counts over one invocation's iterations."""

    def __init__(self, workload: Workload, doc: dict, n_subjects: int):
        self.workload, self.doc, self.n_subjects = workload, doc, n_subjects
        self.attempted = self.failed = 0
        self.report = None

    def attempt(self, step):
        """Run step() -> (report bytes, values); the values if every check passed."""
        self.attempted += 1
        try:
            report, values = step()
            check_report(report, self.doc, self.workload.n_classes, self.n_subjects)
            if self.report is None:
                self.report = report
            elif report != self.report:
                raise RuntimeError("report.csv differs from the first iteration's")
        except (RuntimeError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            log(f"  iteration {self.attempted} FAILED: {exc}")
            return None
        return values


# -- metrics ----------------------------------------------------------------------

def summarize(name, unit, values):
    if not values:
        log(f"  {name:<12s} no successful samples")
        return
    log(f"  {name:<12s} {statistics.median(values):10.4f} {unit:<5s} median of "
        f"{len(values)} (min {min(values):.4f}, max {max(values):.4f})")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (see bench/layers.json)."""
    calls, seconds, counts = trace["calls"], trace["seconds"], trace["counts"]
    out = {}
    for name, timed in trace["wrapped"].items():
        out[f"{name}.calls"] = calls.get(name, 0)
        if timed:
            out[f"{name}.s"] = seconds.get(name, 0.0)
    out["bench.import.s"] = seconds["bench.import"]
    for stage in STAGES:
        for key in ("items_in", "items_out"):
            out[f"engine.{stage}.{key}"] = counts.get(f"engine.{stage}.{key}", 0)
    for key in ("engine.Classification.rows_dropped", "labels.sfs_fit_calls",
                "acquisition.load_csv_signal.mb", "acquisition.write_csv_signal.mb",
                "preprocessing.apply_zero_phase.samples", "features.segment.windows",
                "classification._knn_scores.query_rows"):
        out[key] = counts.get(key, 0)
    windows = counts.get("features.windows", 0)
    out["features.window_yield"] = (counts.get("features.complete_windows", 0) / windows
                                    if windows else 0.0)
    out["features.r_peak_calls_per_ecg_window"] = (
        calls.get("features.detect_r_peaks", 0) / windows if windows else 0.0)
    for layer in ("bench", "config", "engine", "acquisition", "preprocessing",
                  "features", "labels", "classification", "synth"):
        out[f"self.{layer}.s"] = trace["self_s"].get(layer, 0.0)
    out["trace.synth_s"] = seconds.get("bench.synth", 0.0)
    out["trace.run_s"] = seconds.get("bench.run", 0.0)
    return out


# -- the two kinds of run ---------------------------------------------------------

def _report(paths) -> bytes:
    return (Path(paths["out"]) / "report.csv").read_bytes()


def _fresh(*dirs):
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def until(seconds):
    """Yield while the next iteration should end within `seconds`, judged by
    the last one's duration; the first always runs."""
    start = last = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if now + (now - last) > start + seconds:
            return
        last = now
        yield


def timed_run(workload, paths, seconds, iterations):
    samples = {name: [] for name in (*END_TO_END_UNITS, *RAW_UNITS)}

    def one_iteration():
        _fresh(paths["data"], paths["out"])
        result = child("iterate", **paths)
        check_exit(result)
        return _report(paths), {
            "setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"],
            "synth_s": result["synth_s"], "run_s": result["run_s"],
            "synth_rel": result["synth_s"] / result["synth_ref_s"],
            "run_rel": result["run_s"] / result["run_ref_s"]}

    for _ in until(seconds):
        values = iterations.attempt(one_iteration)
        for name, value in (values or {}).items():
            samples[name].append(value)
    # every iteration starts a fresh interpreter and times its set-up; short
    # runs add set-up-only children so the median has SETUP_SAMPLES values
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        samples["setup_s"].append(child("setup", **paths)["setup_s"])
    for name, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        summarize(name, unit, samples[name])
    return {name: statistics.median(samples[name]) for name in END_TO_END_UNITS
            if samples[name]}


def traced_run(workload_name, workload, paths, seconds, iterations, seed):
    traces, per_iteration, untraced = [], [], []
    trace_file = Path(paths["out"]).parent / "trace.json"

    def traced_iteration():
        _fresh(paths["data"], paths["out"])
        check_exit(child("traced", trace_file=str(trace_file), **paths))
        trace = json.loads(trace_file.read_text(encoding="utf-8"))
        traces.append(trace)
        missing = [n for n in workload.must_fire if not trace["calls"].get(n)]
        if missing:
            raise RuntimeError(f"kernel coverage: no calls recorded for {missing}")
        return _report(paths), layer_metrics(trace)

    def untraced_run():
        _fresh(paths["out"])
        result = child("run", **paths)
        check_exit(result)
        return _report(paths), result["run_s"]

    for _ in until(seconds):
        metrics = iterations.attempt(traced_iteration)
        untraced_s = iterations.attempt(untraced_run) if metrics else None
        if untraced_s is not None:
            metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced_s
            per_iteration.append(metrics)
            untraced.append(untraced_s)
    out_file = WORK / f"trace-{workload_name}-seed{seed}.json"
    out_file.write_text(json.dumps({"workload": workload_name, "seed": seed,
                                    "iterations": traces}), encoding="utf-8")
    if not per_iteration:
        return {}
    metrics = {k: statistics.median(m[k] for m in per_iteration)
               for k in per_iteration[0]}
    log(f"  traced iterations: {len(per_iteration)}; spans written to "
        f"{out_file.relative_to(ROOT)}")
    log(f"  traced run_s {metrics['trace.run_s']:.4f} s, untraced run_s "
        f"{statistics.median(untraced):.4f} s, tracing overhead "
        f"{metrics['trace.overhead_s']:.4f} s")
    stages = sum(metrics[f"engine.{stage}.s"] for stage in STAGES)
    log(f"  engine stages account for {stages:.4f} s of the traced run_s "
        f"({stages / metrics['trace.run_s']:.1%}); the rest is config load "
        "and report writing")
    log("  self time per layer (s):")
    for key in sorted(k for k in metrics if k.startswith("self.")):
        log(f"    {key[5:-2]:<16s} {metrics[key]:.4f}")
    return metrics


def run_workload(name, seed, seconds, trace) -> int:
    """Measure one workload; prints its report and, last, its JSON result."""
    import yaml  # a dependency of affectpipe itself

    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    spec_doc = yaml.safe_load((BENCH / "workloads" / workload.spec).read_text())
    doc = yaml.safe_load((BENCH / "workloads" / workload.config).read_text())
    work = WORK / f"work-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc["dataset"]["root"] = str(work / "data")
    (work / "config.yaml").write_text(yaml.safe_dump(doc), encoding="utf-8")
    paths = {"spec": str(BENCH / "workloads" / workload.spec),
             "config": str(work / "config.yaml"), "data": str(work / "data"),
             "out": str(work / "out"), "seed": seed}

    log(f"workload {name}, dataset seed {seed}, {seconds:g} s, "
        f"trace {trace}; closed loop, 1 client, one child process per step")
    iterations = Iterations(workload, doc, int(spec_doc["n_subjects"]))
    try:
        if trace:
            metrics = traced_run(name, workload, paths, seconds, iterations, seed)
            layers = json.loads((BENCH / "layers.json").read_text())
            wanted = {m["name"]: m["unit"] for m in layers}
        else:
            metrics = timed_run(workload, paths, seconds, iterations)
            wanted = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log(f"  error_rate   {iterations.failed}/{iterations.attempted} = "
        f"{iterations.failed / iterations.attempted:.4f} (failed/attempted iterations)")
    if iterations.report is not None:
        log(f"  report.csv sha256 {hashlib.sha256(iterations.report).hexdigest()}")
    unlisted = set(metrics) ^ set(wanted)
    if metrics and unlisted:
        log(f"  metrics missing from the run or from the list: {sorted(unlisted)}")
    correct = iterations.failed == 0 and not unlisted
    print(json.dumps({
        "correct": correct, "attempted": iterations.attempted,
        "failed": iterations.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in wanted.items() if key in metrics}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; all of them, one after another, "
                             "when omitted")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "affectpipe" / "__init__.py").is_file():
        print(f"no affectpipe sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    return max(run_workload(name, args.seed, args.seconds, args.trace)
               for name in names)


if __name__ == "__main__":
    sys.exit(main())
