"""Declarative pipeline configuration.

A YAML run config maps one-to-one onto a PipelineSpec: build_pipeline_spec,
its only reader, reads and checks each key once, before any I/O happens.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from .acquisition import SignalRegistry
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
from .preprocessing import STEP_OPS, PreprocessChain, PreprocessStep
from .synth import DatasetSpec

_REQUIRED = object()


# a check is (predicate, what a value must be); type() keeps bools out of ints
_POSITIVE = (lambda v: type(v) in (int, float) and 0 < v < math.inf, "a finite positive number")
_FLAG = (lambda v: type(v) is bool, "true or false")
_LIST = (lambda v: type(v) is list, "a list")
_NAMES = (lambda v: type(v) is list and v and all(type(n) is str for n in v),
          "a non-empty list of names")


def _at_least(floor):
    return lambda v: type(v) is int and v >= floor, f"an integer of at least {floor}"


def _one_of(*choices):
    return lambda v: v in choices, f"one of {', '.join(choices)}"


#: The optional hyperparameters ``classification.fit`` reads, per
#: algorithm; an ensemble's required ``members`` are read apart.
_HYPERPARAMETERS = {
    "KNN": {"k_neighbors": _at_least(1)},
    "DecisionTree": {"criterion": _one_of("entropy"), "max_depth": _at_least(1)},
    "LDA": {},
    "LogisticRegression": {"iterations": _at_least(1), "step": _POSITIVE},
    "AveragingEnsemble": {},
}
KNOWN_ALGORITHMS = tuple(_HYPERPARAMETERS)
_MEMBERS = (lambda v: type(v) is list and v, "a non-empty list of classifier entries")

_CUTOFFS = (lambda v: _POSITIVE[0](v) or (type(v) is list and v != []
                                           and all(map(_POSITIVE[0], v))),
            "a finite positive number or a non-empty list of them")
_FILTER_KEYS = {"order": (_at_least(1), _REQUIRED), "cutoffs_hz": (_CUTOFFS, _REQUIRED)}
#: The keys ``preprocessing._apply_step`` reads, per chain op, each with
#: its check and its default (``_REQUIRED`` or None for the op's own).
#: The Nyquist limit depends on the data's sample rate, so it is checked,
#: with the number of cutoffs an op takes, when the chain runs.
_STEP_KEYS = {
    **dict.fromkeys(("lowpass", "highpass", "bandpass", "bandstop"), _FILTER_KEYS),
    "notch": {"f0_hz": (_POSITIVE, None), "q": (_POSITIVE, None)},
    "resample": {"target_fs_hz": (_POSITIVE, _REQUIRED)},
}


class _Section:
    """One mapping of a run config at dotted key ``path``.  Each key is read
    once, a null value reads as absent, and :meth:`done` rejects the keys
    nothing read."""

    def __init__(self, doc, path):
        if not isinstance(doc, dict):
            raise ConfigError(f"{path or 'config root'} must be a mapping, got {doc!r}")
        self.doc, self.path, self.read = doc, path, set()

    def key(self, name) -> str:
        return f"{self.path}.{name}" if self.path else str(name)

    def get(self, name, default=_REQUIRED, check=None):
        self.read.add(name)
        value = self.doc.get(name)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing {self.key(name)!r}")
            return default
        if check and not check[0](value):
            raise ConfigError(f"{self.key(name)} must be {check[1]}, got {value!r}")
        return value

    def section(self, name, optional=False) -> _Section:
        return _Section(self.get(name, {} if optional else _REQUIRED), self.key(name))

    def done(self):
        unknown = sorted(self.key(name) for name in set(self.doc) - self.read)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


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
    entry = _Section(doc, path)
    algorithm = entry.get("algorithm", check=_one_of(*KNOWN_ALGORITHMS))
    hp = entry.section("hyperparameters", optional=True)
    params = {name: value for name, check in _HYPERPARAMETERS[algorithm].items()
              if (value := hp.get(name, None, check)) is not None}
    if algorithm == "AveragingEnsemble":
        params["members"] = [_classifier(m, f"{hp.key('members')}[{i}]")
                             for i, m in enumerate(hp.get("members", check=_MEMBERS))]
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
        entry = _Section(item, f"features[{i}]")
        names = entry.get("features", (), _LIST)
        entries.append(FeatureCatalogEntry(
            entry.get("name"), entry.get("modality"), entry.get("computation"),
            entry.section("parameters", optional=True).doc, tuple(names) or None))
        entry.done()
    return entries


def _build_chains(chains: _Section, registry: SignalRegistry) -> dict[str, PreprocessChain]:
    built = {}
    for modality in chains.doc:
        _modality(registry, modality, chains.key(modality))
        parsed = []
        for i, step in enumerate(chains.get(modality, check=_LIST)):
            step = _Section(step, f"{chains.key(modality)}[{i}]")
            op = step.get("op", check=_one_of(*STEP_OPS))
            params = {name: tuple(v) if isinstance(v, list) else v
                      for name, (check, default) in _STEP_KEYS[op].items()
                      if (v := step.get(name, default, check)) is not None}
            step.done()
            parsed.append(PreprocessStep(op, params))
        built[str(modality).upper()] = PreprocessChain(tuple(parsed))
    return built


def _label_rule(labels: _Section) -> LabelRule:
    kind = labels.get("kind", check=_one_of("phase-map", "fixed-threshold",
                                            "dynamic-threshold"))
    if kind != "phase-map":
        return LabelRule(kind, {})
    classes = labels.section("phase_to_class")
    return LabelRule("phase-map", {"phase_to_class": {
        str(phase): classes.get(phase, check=_at_least(0)) for phase in classes.doc}})


def build_pipeline_spec(doc: dict) -> PipelineSpec:
    """Check a run-config document and translate it into an executable spec.

    Raises ConfigError naming the dotted key of the first missing, unknown
    or ill-typed key before the feature catalog is checked (CatalogError).
    """
    root = _Section(doc, "")
    seed = root.get("seed", 0, _at_least(0))
    registry = SignalRegistry.default()
    dataset = root.section("dataset")
    signal_types = [_modality(registry, name, f"dataset.signal_types[{i}]")
                    for i, name in enumerate(dataset.get("signal_types", check=_NAMES))]
    stages = [SignalAcquisition(signal_types,
                                dataset.get("root", check=(lambda v: type(v) is str, "a path")),
                                registry)]
    dataset.done()
    pre = root.section("preprocessing", optional=True)
    stages.append(SignalPreprocessor(_build_chains(pre.section("chains", optional=True), registry),
                                     pre.get("resample_rate_hz", None, _POSITIVE)))
    pre.done()
    windowing = root.section("windowing")
    window_s, step_s = (float(windowing.get(k, check=_POSITIVE)) for k in ("window_s", "step_s"))
    if step_s > window_s:
        raise ConfigError("windowing.step_s may not exceed windowing.window_s")
    policy = WindowingPolicy(window_s, step_s, windowing.get("drop_incomplete", True, _FLAG))
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
        selector.get("k", check=_at_least(1)),
        _classifier(selector.get("scorer", {"algorithm": "KNN"}), "selector.scorer"),
        selector.get("cv_folds", 5, _at_least(2)))] if selector.doc else []
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
    strategy = CVStrategy(cv.get("kind", "kfold", _one_of("kfold", "loso")),
                          cv.get("folds", 5, _at_least(2)))
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
    for tuple_field in ("phases", "modalities"):
        if isinstance(doc.get(tuple_field), list):
            doc[tuple_field] = tuple(doc[tuple_field])
    return DatasetSpec(**doc)
