"""Declarative pipeline configuration.

A YAML config maps one-to-one onto a PipelineSpec; it is schema-checked
before any I/O happens.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .classification import ClassifierSpec, CVStrategy
from .engine import (
    Classification,
    FeatureExtractor,
    FeatureSelector,
    LabelGenerator,
    PipelineSpec,
    SignalAcquisition,
    SignalPreprocessor,
)
from .errors import ConfigError
from .features import FeatureCatalogEntry, WindowingPolicy, ecg_eda_catalog
from .labels import LabelRule
from .preprocessing import PreprocessChain, PreprocessStep
from .synth import DatasetSpec

KNOWN_ALGORITHMS = ("KNN", "DecisionTree", "LDA", "LogisticRegression",
                    "AveragingEnsemble")


def _require(mapping, key, context):
    if key not in mapping:
        raise ConfigError(f"missing {key!r} in {context}")
    return mapping[key]


def load_config(path) -> dict:
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    validate_config(doc)
    return doc


def validate_config(doc: dict):
    dataset = _require(doc, "dataset", "config")
    _require(dataset, "root", "dataset")
    types = _require(dataset, "signal_types", "dataset")
    if not isinstance(types, list) or not types:
        raise ConfigError("dataset.signal_types must be a non-empty list")
    windowing = _require(doc, "windowing", "config")
    for key in ("window_s", "step_s"):
        v = _require(windowing, key, "windowing")
        if not isinstance(v, (int, float)) or v <= 0:
            raise ConfigError(f"windowing.{key} must be a positive number")
    if windowing["step_s"] > windowing["window_s"]:
        raise ConfigError("windowing.step_s may not exceed windowing.window_s")
    labels = _require(doc, "labels", "config")
    kind = _require(labels, "kind", "labels")
    if kind not in ("phase-map", "fixed-threshold", "dynamic-threshold"):
        raise ConfigError(f"labels.kind {kind!r} not recognized")
    if kind == "phase-map":
        _require(labels, "phase_to_class", "labels")
    # a missing/empty classifiers list is legal here; the pipeline builder
    # reports it as MissingStage("Classification")
    classifiers = doc.get("classifiers") or []
    if not isinstance(classifiers, list):
        raise ConfigError("classifiers must be a list")
    for c in classifiers:
        algo = _require(c, "algorithm", "classifier entry")
        if algo not in KNOWN_ALGORITHMS:
            raise ConfigError(f"unknown classifier algorithm {algo!r}")
    selector = doc.get("selector")
    if selector:
        _require_fold_count(selector.get("cv_folds", 5), "selector.cv_folds")
    cv = doc.get("cv", {})
    if cv.get("kind", "kfold") not in ("kfold", "loso"):
        raise ConfigError("cv.kind must be kfold or loso")
    _require_fold_count(cv.get("folds", 5), "cv.folds")
    if "shuffle_seed" in cv:
        # an old config must not silently get other folds
        raise ConfigError("cv.shuffle_seed is not a config key: the top-level "
                          "'seed' (or run --seed) shuffles every k-fold split")


def _require_fold_count(folds, key):
    if isinstance(folds, bool) or not isinstance(folds, int) or folds < 2:
        raise ConfigError(f"{key} must be an integer of at least 2, got {folds!r}")


def _build_catalog(features_doc) -> list[FeatureCatalogEntry]:
    if features_doc in (None, "default-ecg-eda"):
        return ecg_eda_catalog()
    if isinstance(features_doc, list):
        entries = []
        for item in features_doc:
            entries.append(FeatureCatalogEntry(
                name=_require(item, "name", "feature entry"),
                modality=_require(item, "modality", "feature entry"),
                computation=_require(item, "computation", "feature entry"),
                parameters=item.get("parameters", {}),
                features=tuple(item["features"]) if item.get("features") else None,
            ))
        return entries
    raise ConfigError("features must be 'default-ecg-eda' or a list of entries")


def _build_chains(chains_doc) -> dict[str, PreprocessChain]:
    chains = {}
    for modality, steps in (chains_doc or {}).items():
        parsed = []
        for step in steps:
            op = _require(step, "op", f"chain for {modality}")
            params = {k: tuple(v) if isinstance(v, list) else v
                      for k, v in step.items() if k != "op"}
            parsed.append(PreprocessStep(op, params))
        chains[modality.upper()] = PreprocessChain(tuple(parsed))
    return chains


def build_pipeline_spec(doc: dict) -> PipelineSpec:
    """Translate a validated config document into an executable spec."""
    seed = int(doc.get("seed", 0))
    dataset = doc["dataset"]
    pre = doc.get("preprocessing", {})
    windowing = doc["windowing"]
    labels_doc = doc["labels"]
    cv_doc = doc.get("cv", {})

    stages = [
        SignalAcquisition(dataset["signal_types"], dataset["root"]),
        SignalPreprocessor(_build_chains(pre.get("chains")),
                           pre.get("resample_rate_hz")),
        FeatureExtractor(
            _build_catalog(doc.get("features")),
            WindowingPolicy(float(windowing["window_s"]),
                            float(windowing["step_s"]),
                            windowing.get("drop_incomplete", True)),
            calculate_average=windowing.get("calculate_average", False)),
        LabelGenerator(_label_rule(labels_doc)),
    ]
    selector = doc.get("selector")
    if selector:
        scorer_doc = selector.get("scorer", {"algorithm": "KNN"})
        scorer = ClassifierSpec(scorer_doc.get("name", scorer_doc["algorithm"]),
                                scorer_doc["algorithm"],
                                scorer_doc.get("hyperparameters", {}))
        stages.append(FeatureSelector(int(selector["k"]), scorer,
                                      selector.get("cv_folds", 5)))
    models = [ClassifierSpec(c.get("name", c["algorithm"]), c["algorithm"],
                             c.get("hyperparameters", {}))
              for c in doc.get("classifiers") or []]
    if models:
        strategy = CVStrategy(cv_doc.get("kind", "kfold"), cv_doc.get("folds", 5))
        stages.append(Classification(Classification.MODE_CROSS_VALIDATE, models,
                                     cv=strategy))
    return PipelineSpec(tuple(stages), seed=seed,
                        strict=bool(doc.get("strict", False)))


def load_dataset_spec(path) -> DatasetSpec:
    """Parse a synthetic-dataset spec file (YAML onto DatasetSpec fields)."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read spec {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"spec {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("dataset spec root must be a mapping")
    known = set(DatasetSpec.__dataclass_fields__)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown dataset spec fields: {sorted(unknown)}")
    for tuple_field in ("phases", "modalities"):
        if isinstance(doc.get(tuple_field), list):
            doc[tuple_field] = tuple(doc[tuple_field])
    return DatasetSpec(**doc)


def _label_rule(labels_doc) -> LabelRule:
    kind = labels_doc["kind"]
    if kind == "phase-map":
        mapping = {str(k): int(v) for k, v in labels_doc["phase_to_class"].items()}
        return LabelRule("phase-map", {"phase_to_class": mapping})
    return LabelRule(kind, {})
