"""Ordered, type-checked pipeline construction and execution.

A pipeline is an ordered list of configured components.  Build-time
validation guarantees that any accepted spec can never hit a payload-type
mismatch at run time: each component declares its input and output payload
tags and consecutive components must be compatible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import preprocessing
from .acquisition import AcquisitionResult, DatasetIndex, SignalRegistry, acquire, scan_dataset
from .classification import ClassifierSpec, CVStrategy, cross_validate, fit, predict
from .errors import (
    IncompatibleStages,
    MisorderedStage,
    MissingStage,
    StageExecutionError,
)
from .features import FeatureCatalogEntry, WindowingPolicy, check_catalog, extract_features
from .labels import LABEL_RULES, LabelRule, attach_labels, load_reports, sequential_forward_selection
from .types import FeatureMatrix, LabelVector, SubjectBundle

# payload tags threaded between stages
NONE, BUNDLE, FEATURES, LABELED, OUTPUT = (
    "none", "bundle", "features", "labeled-features", "output")


@dataclass
class RunContext:
    seed: int = 0
    strict: bool = False
    #: the dataset scan of the Acquisition stage
    index: DatasetIndex | None = None
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

    def run(self, payload, ctx):
        index = scan_dataset(self.source_folder, self.registry)
        result: AcquisitionResult = acquire(index, self.signal_types, strict=ctx.strict)
        ctx.reports["excluded_subjects"] = list(result.excluded_subjects)
        ctx.reports["skipped_files"] = [str(p) for p in result.skipped_files]
        ctx.index = index
        return result.bundle


class SignalPreprocessor(Component):
    kind = "Preprocessor"
    input_type = BUNDLE
    output_type = BUNDLE

    def __init__(self, preprocessing_methods=None, resample_rate=None):
        self.chains = dict(preprocessing_methods or {})
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
        if kind and kind.questionnaire and ctx.index is not None:
            # the per-subject report files found during the dataset scan
            reports = [r for subject, path in sorted(ctx.index.report_files.items())
                       for r in load_reports(path, subject)]
        # rows with absent cells leave here, so every later stage sees the
        # same complete, labeled rows
        matrix, incomplete = matrix.drop_incomplete_rows()
        matrix, labels, unlabeled = attach_labels(matrix, self.rule, reports,
                                                  strict=ctx.strict)
        ctx.reports["rows_without_labels"] = unlabeled
        ctx.reports["dropped_rows"] = incomplete
        return matrix, labels


class FeatureSelector(Component):
    kind = "FeatureSelector"
    input_type = LABELED
    output_type = LABELED

    def __init__(self, k: int, scorer: ClassifierSpec, cv_folds: int = 5):
        self.k = k
        self.scorer = scorer
        self.cv_folds = cv_folds

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
        elif self.mode == self.MODE_TEST:
            models = dict(self.pretrained)
        else:
            raise ValueError(f"unknown classification mode {self.mode}")
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
    """Validate ordering and type compatibility; report the first problem.

    Raises MissingStage, MisorderedStage, or IncompatibleStages(i, i+1).
    """
    stages = list(spec.stages)
    kinds = [s.kind for s in stages]
    for kind in REQUIRED_KINDS:
        if kind not in kinds:
            raise MissingStage(kind)
    if kinds[0] != "Acquisition":
        raise MisorderedStage("Acquisition", "must be the first stage")
    if kinds[-1] != "Classification":
        raise MisorderedStage("Classification", "must be the last stage")
    if kinds.count("Acquisition") > 1 or kinds.count("Classification") > 1:
        raise MisorderedStage("Acquisition", "duplicate terminal stage")
    if "FeatureSelector" in kinds and \
            kinds.index("FeatureSelector") < kinds.index("LabelGenerator"):
        raise MisorderedStage("FeatureSelector", "needs labels; place it after "
                              "the LabelGenerator")
    for i in range(len(stages) - 1):
        if stages[i].output_type != stages[i + 1].input_type:
            raise IncompatibleStages(i, i + 1, stages[i].output_type,
                                     stages[i + 1].input_type)
    return Pipeline(spec)
