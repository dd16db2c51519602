"""Call tracing for the benchmark's traced run, installed from outside.

The tracer wraps pipeline stage ``run`` methods and named kernels of an
already imported ``affectpipe`` without editing it. A function is replaced
at every ``affectpipe`` module binding that refers to it, so a call through
``features.design_butterworth`` is seen as well as one through
``preprocessing.design_butterworth``. Spans (name, start, end, parent) and
counters stay in memory until :meth:`Tracer.dump`.

A recursive function (``_grow_tree``) counts every call but opens a span
only for its outermost call, so nested time is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _items(payload) -> int:
    """Series in a bundle, rows x columns of a matrix, predictions of an output."""
    if payload is None:
        return 0
    if isinstance(payload, tuple):  # (FeatureMatrix, LabelVector)
        payload = payload[0]
    if hasattr(payload, "series_for"):
        return sum(len(payload.series_for(s)) for s in payload.subjects())
    if hasattr(payload, "columns"):
        return len(payload) * len(payload.columns)
    if hasattr(payload, "y_pred"):
        return len(payload.y_true) * len(payload.y_pred)
    raise TypeError(f"no item count for payload {type(payload).__name__}")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []        # [name, start_s, end_s, parent span index or -1]
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.counts = Counter()  # extra counters, e.g. "acquisition.load_csv_signal.mb"
        self.wrapped = {}       # name -> whether its calls are timed
        self._stack = []
        self._depth = Counter()

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self.t0, None, parent])
        self._stack.append(len(self.spans) - 1)
        self._depth[name] += 1

    def _close(self, name):
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter() - self.t0
        self._depth[name] -= 1
        self.seconds[name] += span[2] - span[1]

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own (e.g. ``bench.run``)."""
        self.calls[name] += 1
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name)

    def active(self, name) -> bool:
        return self._depth[name] > 0

    # -- wrapping -----------------------------------------------------------

    def _wrapper(self, name, original, timed, after):
        tracer = self
        self.wrapped[name] = timed

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if not timed or tracer._depth[name]:
                result = original(*args, **kwargs)
            else:
                tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(name)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return functools.wraps(original)(traced)

    def wrap_function(self, module, attr, name, timed=True, after=None):
        """Replace ``module.attr`` wherever an affectpipe module binds it."""
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, timed, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "affectpipe"
                                   or mod_name.startswith("affectpipe.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr, name, timed=True, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, original, timed, after))

    # -- output -------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: span time not covered by a child span.

        The layer is the first dotted part of the span name.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            if end is not None:
                out[name.split(".")[0]] += (end - start) - covered
        return dict(out)

    def dump(self) -> dict:
        return {"wrapped": self.wrapped, "spans": self.spans, "calls": dict(self.calls),
                "seconds": dict(self.seconds), "counts": dict(self.counts)}


# -- the benchmark's wrapper set ---------------------------------------------

def _counter(key, index, name, measure):
    """Hook adding ``measure(argument, result)`` to counter ``key``."""
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += measure(_arg(args, kwargs, index, name), result)
    return after


def _file_mb(path, _):
    return Path(path).stat().st_size / 1e6


def _stage_after(kind):
    def after(tracer, args, kwargs, result):
        payload, ctx = _arg(args, kwargs, 1, "payload"), _arg(args, kwargs, 2, "ctx")
        tracer.counts[f"engine.{kind}.items_in"] += _items(payload)
        tracer.counts[f"engine.{kind}.items_out"] += _items(result)
        if kind == "FeatureExtractor":
            _, dropped = result.drop_incomplete_rows()
            tracer.counts["features.windows"] += len(result)
            tracer.counts["features.complete_windows"] += len(result) - len(dropped)
        if kind == "Classification":
            tracer.counts["engine.Classification.rows_dropped"] += len(
                ctx.reports.get("dropped_rows", []))
    return after


def _fit_after(tracer, args, kwargs, result):
    if tracer.active("labels.sequential_forward_selection"):
        tracer.counts["labels.sfs_fit_calls"] += 1


def install(tracer: Tracer):
    """Wrap every stage and kernel the benchmark reports on."""
    from affectpipe import (acquisition, classification, config, engine,
                            features, labels, preprocessing, synth, types)

    for cls in (engine.SignalAcquisition, engine.SignalPreprocessor,
                engine.FeatureExtractor, engine.LabelGenerator,
                engine.FeatureSelector, engine.Classification):
        tracer.wrap_method(cls, "run", f"engine.{cls.kind}",
                           after=_stage_after(cls.kind))

    f = tracer.wrap_function
    f(acquisition, "scan_dataset", "acquisition.scan_dataset")
    f(acquisition, "load_csv_signal", "acquisition.load_csv_signal",
      after=_counter("acquisition.load_csv_signal.mb", 0, "path", _file_mb))
    f(acquisition, "write_csv_signal", "acquisition.write_csv_signal",
      after=_counter("acquisition.write_csv_signal.mb", 1, "path", _file_mb))
    f(preprocessing, "design_butterworth", "preprocessing.design_butterworth")
    f(preprocessing, "apply_zero_phase", "preprocessing.apply_zero_phase",
      after=_counter("preprocessing.apply_zero_phase.samples", 1, "series",
                    lambda series, _: len(series)))
    f(features, "detect_r_peaks", "features.detect_r_peaks")
    f(features, "scr_events", "features.scr_events")
    f(features, "segment", "features.segment",
      after=_counter("features.segment.windows", 0, "series",
                    lambda _, windows: len(windows)))
    f(types, "validate_time_series", "types.validate_time_series", timed=False)
    tracer.wrap_method(types.FeatureMatrix, "to_array",
                       "types.FeatureMatrix.to_array", timed=False)
    f(labels, "attach_labels", "labels.attach_labels")
    f(labels, "sequential_forward_selection", "labels.sequential_forward_selection")
    f(classification, "fit", "classification.fit", after=_fit_after)
    f(classification, "predict", "classification.predict")
    f(classification, "_knn_scores", "classification._knn_scores",
      after=_counter("classification._knn_scores.query_rows", 1, "X",
                    lambda X, _: X.shape[0]))
    f(classification, "_grow_tree", "classification._grow_tree")
    f(classification, "cross_validate", "classification.cross_validate")
    f(synth, "synth_dataset", "synth.synth_dataset")
    f(synth, "synth_ecg", "synth.synth_ecg")
    f(synth, "synth_eda", "synth.synth_eda")
    f(config, "load_config", "config.load_config")
    f(engine, "build_pipeline", "engine.build_pipeline")
