"""Declarative pipeline configuration.

A YAML run config maps one-to-one onto a PipelineSpec: build_pipeline_spec,
its only reader, reads and checks each key once, before any I/O happens.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .acquisition import SignalRegistry
from .checks import NAMES, POSITIVE, Section, at_least, one_of
from .classification import ALGORITHMS, CV_KEYS, ClassifierSpec, CVStrategy
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
from .labels import CLASS_ID, LABEL_RULES, LabelRule
from .preprocessing import STEP_OPS, PreprocessChain, PreprocessStep
from .synth import DatasetSpec

# checks of the config's own structure; a choice's keys and their checks
# come from the table of the module that runs it
_FLAG = (lambda v: type(v) is bool, "true or false")
_LIST = (lambda v: type(v) is list, "a list")
_ENTRIES = (lambda v: type(v) is list and v, "a non-empty list of classifier entries")


def _read_yaml(path, what) -> dict:
    try:
        doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} root must be a mapping")
    return doc


def load_config(path) -> dict:
    return _read_yaml(path, "config")


def _classifier(doc, path) -> ClassifierSpec:
    entry = Section(doc, path, ConfigError)
    algorithm = entry.get("algorithm", check=one_of(*ALGORITHMS))
    hp = entry.section("hyperparameters", optional=True)
    keys = ALGORITHMS[algorithm].hyperparameters
    params = hp.table({name: keys[name] for name in keys if name != "members"})
    if "members" in keys:  # each entry is read as a classifier of its own
        params["members"] = [_classifier(m, f"{hp.key('members')}[{i}]")
                             for i, m in enumerate(hp.get("members", check=_ENTRIES))]
    hp.done()
    spec = ClassifierSpec(entry.get("name", algorithm), algorithm, params)
    entry.done()
    return spec


def _modality(registry: SignalRegistry, name, key):
    if registry.lookup(str(name)) is None:
        raise ConfigError(f"{key}: {name!r} is not a known modality "
                          f"({', '.join(registry.names())})")
    return name


def _build_catalog(features_doc) -> list[FeatureCatalogEntry]:
    if features_doc == "default-ecg-eda":
        return ecg_eda_catalog()
    entries = []
    for i, item in enumerate(features_doc):
        entry = Section(item, f"features[{i}]", ConfigError)
        names = entry.get("features", (), _LIST)
        entries.append(FeatureCatalogEntry(
            entry.get("name"), entry.get("modality"), entry.get("computation"),
            entry.section("parameters", optional=True).doc, tuple(names) or None))
        entry.done()
    return entries


def _build_chains(chains: Section, registry: SignalRegistry) -> dict[str, PreprocessChain]:
    built = {}
    for modality in chains.doc:
        _modality(registry, modality, chains.key(modality))
        parsed = []
        for i, step in enumerate(chains.get(modality, check=_LIST)):
            step = Section(step, f"{chains.key(modality)}[{i}]", ConfigError)
            op = step.get("op", check=one_of(*STEP_OPS))
            params = {name: tuple(v) if isinstance(v, list) else v
                      for name, v in step.table(STEP_OPS[op]).items()}
            step.done()
            parsed.append(PreprocessStep(op, params))
        built[str(modality).upper()] = PreprocessChain(tuple(parsed))
    return built


def _label_rule(labels: Section) -> LabelRule:
    kind = labels.get("kind", check=one_of(*LABEL_RULES))
    keys = LABEL_RULES[kind].parameters
    params = labels.table({name: keys[name] for name in keys if name != "phase_to_class"})
    if "phase_to_class" in keys:  # each phase is read as a key of its own
        classes = labels.section("phase_to_class")
        params["phase_to_class"] = {str(phase): classes.get(phase, check=CLASS_ID)
                                    for phase in classes.doc}
    return LabelRule(kind, params)


def build_pipeline_spec(doc: dict) -> PipelineSpec:
    """Check a run-config document and translate it into an executable spec.

    Raises ConfigError naming the dotted key of the first missing, unknown
    or ill-typed key before the feature catalog is checked (CatalogError).
    """
    root = Section(doc, "", ConfigError)
    seed = root.get("seed", 0, at_least(0))
    registry = SignalRegistry.default()
    dataset = root.section("dataset")
    signal_types = [_modality(registry, name, f"dataset.signal_types[{i}]")
                    for i, name in enumerate(dataset.get("signal_types", check=NAMES))]
    stages = [SignalAcquisition(signal_types,
                                dataset.get("root", check=(lambda v: type(v) is str, "a path")),
                                registry)]
    dataset.done()
    pre = root.section("preprocessing", optional=True)
    stages.append(SignalPreprocessor(_build_chains(pre.section("chains", optional=True), registry),
                                     pre.get("resample_rate_hz", None, POSITIVE)))
    pre.done()
    windowing = root.section("windowing")
    try:
        policy = WindowingPolicy(*(float(windowing.get(k, check=POSITIVE))
                                   for k in ("window_s", "step_s")),
                                 windowing.get("drop_incomplete", True, _FLAG))
    except ValueError as exc:  # step_s above window_s
        raise ConfigError(f"windowing: {exc}") from exc
    calculate_average = windowing.get("calculate_average", False, _FLAG)
    windowing.done()
    catalog = _build_catalog(root.get("features", "default-ecg-eda", (
        lambda v: v == "default-ecg-eda" or type(v) is list,
        "'default-ecg-eda' or a list of entries")))
    labels = root.section("labels")
    labeller = LabelGenerator(_label_rule(labels))
    labels.done()
    selector = root.section("selector", optional=True)
    selection = [FeatureSelector(
        selector.get("k", check=at_least(1)),
        _classifier(selector.get("scorer", {"algorithm": "KNN"}), "selector.scorer"),
        selector.get("cv_folds", 5, at_least(2)))] if selector.doc else []
    selector.done()
    models = []
    for i, c in enumerate(root.get("classifiers", [], _LIST)):
        spec = _classifier(c, f"classifiers[{i}]")
        if spec.name in {m.name for m in models}:
            raise ConfigError(f"classifiers[{i}].name {spec.name!r} repeats an earlier "
                              "classifier's name (it defaults to the algorithm)")
        models.append(spec)
    cv = root.section("cv", optional=True)
    if "shuffle_seed" in cv.doc:  # an old config must not silently get other folds
        raise ConfigError("cv.shuffle_seed is not a config key: the top-level "
                          "'seed' (or run --seed) shuffles every k-fold split")
    strategy = CVStrategy(**cv.table(CV_KEYS))
    cv.done()
    strict = root.get("strict", False, _FLAG)
    root.done()
    stages += [FeatureExtractor(catalog, policy, calculate_average=calculate_average),
               labeller, *selection]
    if models:
        stages.append(Classification(Classification.MODE_CROSS_VALIDATE, models, cv=strategy))
    return PipelineSpec(tuple(stages), seed=seed, strict=strict)


def load_dataset_spec(path) -> DatasetSpec:
    """Parse a synthetic-dataset spec file (YAML onto DatasetSpec fields)."""
    doc = _read_yaml(path, "dataset spec")
    unknown = set(doc) - set(DatasetSpec.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown dataset spec fields: {sorted(unknown)}")
    return DatasetSpec(**doc)
