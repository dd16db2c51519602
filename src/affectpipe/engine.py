"""Ordered, type-checked pipeline construction and execution.

A pipeline is an ordered list of configured components.  Build-time
validation guarantees that any accepted spec can never hit a payload-type
mismatch at run time: each component declares its input and output payload
tags and consecutive components must be compatible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import preprocessing
from .acquisition import AcquisitionResult, SignalRegistry, acquire, scan_dataset
from .checks import INTEGER, REQUIRED, at_least, check_value, checked
from .classification import CV_KEYS, ClassifierSpec, CVStrategy, cross_validate, fit, predict
from .errors import (
    AllRowsDropped,
    CatalogError,
    IncompatibleStages,
    MissingStage,
    StageExecutionError,
)
from .features import WindowingPolicy, check_catalog, column_entry, extract_features
from .labels import LABEL_RULES, LabelRule, attach_labels, load_reports, sequential_forward_selection
from .types import FeatureMatrix, LabelVector, SubjectBundle, canonical_name

# payload tags threaded between stages
NONE, BUNDLE, FEATURES, LABELED, OUTPUT = (
    "none", "bundle", "features", "labeled-features", "output")


@dataclass
class RunContext:
    seed: int = 0
    strict: bool = False
    #: subject -> self-report CSV, for the subjects the Acquisition kept
    self_report_files: dict[str, Path] = field(default_factory=dict)
    #: plain-data run record, kept as ``Pipeline.last_reports``
    reports: dict = field(default_factory=dict)


class Component:
    """Base class for pipeline stages."""

    kind: str
    input_type: str
    output_type: str

    def run(self, payload, ctx: RunContext):
        raise NotImplementedError


class SignalAcquisition(Component):
    kind = "Acquisition"
    input_type = NONE
    output_type = BUNDLE

    def __init__(self, signal_types, source_folder, registry: SignalRegistry | None = None):
        self.signal_types = list(signal_types)
        self.source_folder = Path(source_folder)
        self.registry = registry or SignalRegistry.default()
        for i, name in enumerate(self.signal_types):
            if self.registry.lookup(canonical_name(name)) is None:
                raise ValueError(f"signal_types[{i}]: {name!r} is not a known modality "
                                 f"({', '.join(self.registry.names())})")

    def run(self, payload, ctx):
        index = scan_dataset(self.source_folder, self.registry)
        result: AcquisitionResult = acquire(index, self.signal_types, strict=ctx.strict)
        ctx.reports["excluded_subjects"] = list(result.excluded_subjects)
        ctx.reports["skipped_files"] = [str(p) for p in index.skipped_files]
        ctx.self_report_files = {subject: path for subject, path in index.report_files.items()
                                 if subject in result.bundle.entries}
        return result.bundle


class SignalPreprocessor(Component):
    kind = "Preprocessor"
    input_type = BUNDLE
    output_type = BUNDLE

    def __init__(self, preprocessing_methods=None, resample_rate=None):
        self.chains = preprocessing.chains_by_modality(preprocessing_methods)
        self.resample_rate = resample_rate

    def run(self, bundle: SubjectBundle, ctx):
        return preprocessing.preprocess(bundle, self.chains, self.resample_rate)


class FeatureExtractor(Component):
    kind = "FeatureExtractor"
    input_type = BUNDLE
    output_type = FEATURES

    def __init__(self, feature_extraction_methods, windowing: WindowingPolicy,
                 calculate_average: bool = False):
        self.catalog = list(feature_extraction_methods)
        check_catalog(self.catalog)  # CatalogError before anything runs
        self.windowing = windowing
        self.calculate_average = calculate_average

    def run(self, bundle: SubjectBundle, ctx):
        return extract_features(bundle, self.windowing, self.catalog,
                                self.calculate_average)


class LabelGenerator(Component):
    kind = "LabelGenerator"
    input_type = FEATURES
    output_type = LABELED

    def __init__(self, label_generation_method: LabelRule):
        self.rule = label_generation_method

    def run(self, matrix: FeatureMatrix, ctx):
        reports = None
        kind = LABEL_RULES.get(self.rule.kind)  # None for a custom rule
        if kind and kind.questionnaire:
            reports = [r for subject, path in sorted(ctx.self_report_files.items())
                       for r in load_reports(path, subject)]
        # rows with absent cells leave here, so every later stage sees the
        # same complete, labeled rows
        kept, incomplete = matrix.drop_incomplete_rows()
        kept, labels, unlabeled = attach_labels(kept, self.rule, reports,
                                                strict=ctx.strict)
        ctx.reports["rows_without_labels"] = unlabeled
        ctx.reports["dropped_rows"] = incomplete
        if len(matrix) and not len(kept):
            causes = []
            if incomplete:  # the catalog entries of the columns with absent cells
                absent = np.isnan(matrix.values).any(axis=0)
                entries = dict.fromkeys(column_entry(c)
                                        for c, a in zip(matrix.columns, absent) if a)
                causes.append(f"{', '.join(entries)} absent")
            if unlabeled:
                causes.append(f"{len(unlabeled)} without {kind.questionnaire} self-reports")
            raise AllRowsDropped(f"{len(incomplete) + len(unlabeled)} of {len(matrix)} "
                                 f"rows dropped: {'; '.join(causes)}")
        return kept, labels


#: FeatureSelector's keys besides ``scorer``: (check, default) each; its
#: inner folds follow the rule of a CVStrategy's ``folds``.
SELECTOR_KEYS = {"k": (at_least(1), REQUIRED), "cv_folds": CV_KEYS["folds"]}


class FeatureSelector(Component):
    kind = "FeatureSelector"
    input_type = LABELED
    output_type = LABELED

    def __init__(self, k: int, scorer: ClassifierSpec,
                 cv_folds: int = SELECTOR_KEYS["cv_folds"][1]):
        # k above the column count (KTooLarge) can only be told at run time
        check_value("scorer", scorer, (lambda v: isinstance(v, ClassifierSpec),
                                       "a ClassifierSpec"))
        params = checked(SELECTOR_KEYS, {"k": k, "cv_folds": cv_folds}, "FeatureSelector")
        self.k = params["k"]
        self.scorer = scorer
        self.cv_folds = params["cv_folds"]

    def run(self, payload, ctx):
        matrix, labels = payload
        selected = sequential_forward_selection(
            matrix, labels, self.scorer, self.k, self.cv_folds, seed=ctx.seed)
        ctx.reports["selected_features"] = list(selected.columns)
        return selected, labels


@dataclass(frozen=True)
class PipelineOutput:
    fitted_models: dict  # name -> model, or its list of fold models under CV
    y_true: LabelVector  # the stage's input labels
    y_pred: dict  # name -> one label per row of y_true
    scores: dict  # name -> one score row per row of y_true, or None
    report: object  # EvaluationReport (cross-validation mode) or None


class Classification(Component):
    kind = "Classification"
    input_type = LABELED
    output_type = OUTPUT

    MODE_TRAIN, MODE_TEST, MODE_CROSS_VALIDATE = 0, 1, 2

    def __init__(self, mode: int, models: dict[str, ClassifierSpec] | list,
                 cv: CVStrategy | None = None, pretrained: dict | None = None):
        modes = (self.MODE_TRAIN, self.MODE_TEST, self.MODE_CROSS_VALIDATE)
        check_value("mode", mode, (lambda v: INTEGER[0](v) and v in modes,
                                   f"MODE_TRAIN, MODE_TEST or MODE_CROSS_VALIDATE, one of {modes}"))
        if isinstance(models, dict):
            models = [ClassifierSpec(name, spec.algorithm, spec.hyperparameters)
                      if isinstance(spec, ClassifierSpec)
                      else ClassifierSpec(name, "custom", {"handle": spec})
                      for name, spec in models.items()]
        self.mode = mode
        self.models = list(models)
        names = [spec.name for spec in self.models]
        if len(set(names)) < len(names):
            raise ValueError(f"classifier names repeat: {names}")
        self.cv = cv
        self.pretrained = pretrained or {}

    def run(self, payload, ctx):
        matrix, labels = payload
        if self.mode == self.MODE_CROSS_VALIDATE:
            report = cross_validate(self.models, matrix, labels,
                                    self.cv or CVStrategy(), ctx.seed)
            models, y_pred, scores = {}, {}, {}
            for name, records in report.per_model.items():
                models[name] = [r.model for r in records]
                y_pred[name] = report.in_row_order(name, "y_pred")
                scores[name] = report.in_row_order(name, "scores")
            return PipelineOutput(models, labels, y_pred, scores, report)
        # models keep the column names and predict checks them
        if self.mode == self.MODE_TRAIN:
            models = {spec.name: fit(spec, matrix, labels) for spec in self.models}
        else:  # MODE_TEST; the mode was checked when built
            models = dict(self.pretrained)
        y_pred, scores = {}, {}
        for name, model in models.items():
            y_pred[name], scores[name] = predict(model, matrix)
        return PipelineOutput(models, labels, y_pred, scores, report=None)


@dataclass(frozen=True)
class PipelineSpec:
    stages: tuple[Component, ...]
    seed: int = 0
    strict: bool = False


class Pipeline:
    """Validated, executable stage sequence."""

    def __init__(self, spec: PipelineSpec):
        self.spec = spec
        self.stages = list(spec.stages)

    def run(self) -> PipelineOutput:
        ctx = RunContext(seed=self.spec.seed, strict=self.spec.strict)
        payload = None
        try:
            for i, stage in enumerate(self.stages):
                try:
                    payload = stage.run(payload, ctx)
                except Exception as exc:
                    raise StageExecutionError(i, stage.kind, exc) from exc
        finally:
            # a failed run keeps the record of the stages that did run
            self.last_reports = ctx.reports
        return payload


REQUIRED_KINDS = ("Acquisition", "Preprocessor", "LabelGenerator", "Classification")


def build_pipeline(spec: PipelineSpec) -> Pipeline:
    """Check the required kinds and the payload chain; raise the first problem.

    Each stage's output must be the next stage's input, and stage 0 must take
    the run's start payload ``none``; so a built-in layout opens with its one
    Acquisition and ends with its one Classification.  Raises MissingStage
    or IncompatibleStages(i, i+1), with i = -1 for stage 0; and CatalogError
    for a FeatureExtractor catalog entry on a modality that a
    SignalAcquisition's signal types do not name, as it could never run.
    """
    stages = list(spec.stages)
    kinds = [s.kind for s in stages]
    for kind in REQUIRED_KINDS:
        if kind not in kinds:
            raise MissingStage(kind)
    for i, (stage, after) in enumerate(zip(stages, stages[1:])):
        if stage.output_type != after.input_type:
            raise IncompatibleStages(i, i + 1, stage.output_type, after.input_type,
                                     stage.kind, after.kind)
    if stages[0].input_type != NONE:
        raise IncompatibleStages(-1, 0, NONE, stages[0].input_type, "run start", kinds[0])
    if isinstance(stages[0], SignalAcquisition):
        loaded = [canonical_name(name) for name in stages[0].signal_types]
        for stage in stages:
            for entry in stage.catalog if isinstance(stage, FeatureExtractor) else ():
                if canonical_name(entry.modality) not in loaded:
                    raise CatalogError(f"catalog entry {entry.name!r} reads modality "
                                       f"{entry.modality!r}, which the Acquisition's "
                                       f"signal_types {loaded} do not name")
    return Pipeline(spec)
