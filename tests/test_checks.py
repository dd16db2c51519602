"""The constructors reject what a run config rejects, naming the key, and
the README's key tables list the keys of the tables the code reads."""

import math
import re
from pathlib import Path

import pytest

from affectpipe import ClassifierSpec, CVStrategy, LabelRule, PreprocessStep
from affectpipe.checks import (
    AT_LEAST_ZERO,
    INTEGER,
    NAMES,
    NUMBER,
    POSITIVE,
    at_least,
    one_of,
)
from affectpipe.classification import ALGORITHMS
from affectpipe.labels import LABEL_RULES
from affectpipe.preprocessing import STEP_OPS

README = Path(__file__).resolve().parents[1] / "README.md"


def knn(hp):
    return lambda: ClassifierSpec("knn", "KNN", hp)


def tree(hp):
    return lambda: ClassifierSpec("dt", "DecisionTree", hp)


def logit(hp):
    return lambda: ClassifierSpec("lr", "LogisticRegression", hp)


def step(op, params):
    return lambda: PreprocessStep(op, params)


# the ids of the hyperparameter, chain-step, CV and label cases of
# test_cli.py::test_run_bad_config_exit_2_before_io and of the cv.folds
# cases of test_run_eval_folds_not_an_integer_of_two_exit_2, then the
# inputs the Python API used to take without a word
@pytest.mark.parametrize("make, key", [
    pytest.param(lambda: ClassifierSpec("s", "SVM"), "algorithm",
                 id="scorer-unknown-algorithm"),
    pytest.param(tree({"criterion": "gini2"}), "criterion", id="criterion-unknown"),
    pytest.param(tree({"max_dept": 3}), "max_dept", id="hyperparameter-typo"),
    pytest.param(tree({"max_depth": 0}), "max_depth", id="max-depth-0"),
    pytest.param(knn({"k_neighbors": 0}), "k_neighbors", id="k-neighbors-0"),
    pytest.param(knn({"k": 3}), "k", id="scorer-hyperparameter-typo"),
    pytest.param(logit({"step": 0}), "step", id="logistic-step-0"),
    pytest.param(logit({"iterations": 0}), "iterations", id="logistic-iterations-0"),
    pytest.param(lambda: ClassifierSpec("lda", "LDA", {"ridge": 1}), "ridge",
                 id="lda-hyperparameter"),
    pytest.param(lambda: ClassifierSpec("e", "AveragingEnsemble"), "members",
                 id="ensemble-no-members"),
    pytest.param(lambda: ClassifierSpec("e", "AveragingEnsemble", {
        "members": [ClassifierSpec("m", "SVM")]}), "algorithm", id="ensemble-member-unknown"),
    pytest.param(lambda: ClassifierSpec("e", "AveragingEnsemble", {
        "members": [{"algorithm": "LDA"}]}), "members", id="ensemble-member-not-a-spec"),
    pytest.param(step("lowpas", {"order": 2, "cutoffs_hz": (5.0,)}), "op",
                 id="chain-op-typo"),
    pytest.param(step("notch", {"f0": 60}), "f0", id="step-key-typo"),
    pytest.param(step("lowpass", {"order": 2, "cutoffs_hz": (5.0,), "q": 3}), "q",
                 id="step-key-of-another-op"),
    pytest.param(step("lowpass", {"cutoffs_hz": (5.0,)}), "order", id="step-no-order"),
    pytest.param(step("highpass", {"order": 2}), "cutoffs_hz", id="step-no-cutoffs"),
    pytest.param(step("bandpass", {"order": 0, "cutoffs_hz": (1, 5)}), "order",
                 id="step-order-0"),
    pytest.param(step("bandstop", {"order": 2, "cutoffs_hz": (0, 5)}), "cutoffs_hz",
                 id="step-cutoff-0"),
    pytest.param(step("lowpass", {"order": 2, "cutoffs_hz": ()}), "cutoffs_hz",
                 id="step-cutoffs-empty"),
    pytest.param(step("notch", {"q": -1}), "q", id="step-q-negative"),
    pytest.param(step("resample", {}), "target_fs_hz", id="step-no-target-rate"),
    pytest.param(lambda: LabelRule("phase-map", {"phase_to_class": {"rest": "x"}}),
                 "phase_to_class", id="class-text"),
    pytest.param(lambda: LabelRule("phase-map"), "phase_to_class", id="phase-map-no-classes"),
    pytest.param(lambda: LabelRule("threshold"), "kind", id="label-kind-unknown"),
    pytest.param(lambda: CVStrategy("kfold", 1), "folds", id="folds-1"),
    pytest.param(lambda: CVStrategy("kfold", "3"), "folds", id="folds-text"),
    pytest.param(lambda: CVStrategy("kfold", True), "folds", id="folds-bool"),
    pytest.param(knn({"k_neighbor": 1}), "k_neighbor", id="repro-k-neighbor-typo"),
    pytest.param(knn({"k_neighbors": 2.5}), "k_neighbors", id="repro-k-neighbors-float"),
    pytest.param(step("lowpass", {"order": 2}), "cutoffs_hz", id="repro-lowpass-no-cutoffs"),
    pytest.param(lambda: CVStrategy("lso", 0), "kind", id="repro-cv-kind-typo"),
    pytest.param(lambda: CVStrategy("loso", 0), "folds", id="repro-cv-folds-0"),
])
def test_constructor_rejects_what_the_config_rejects(make, key):
    with pytest.raises(ValueError, match=rf"\b{re.escape(key)}\b"):
        make()


def test_constructors_fill_in_the_defaults():
    assert ClassifierSpec("knn", "KNN").hyperparameters == {"k_neighbors": 5}
    assert ClassifierSpec("dt", "DecisionTree", {"max_depth": None}).hyperparameters == {
        "criterion": "entropy", "max_depth": None}
    assert PreprocessStep("notch").params == {"f0_hz": 50.0, "q": 30.0}
    assert PreprocessStep("notch", {"f0_hz": 60}) != PreprocessStep("notch")
    assert LabelRule("fixed-threshold").parameters == {}
    assert CVStrategy() == CVStrategy("kfold", 5)


def test_custom_rules_stay_outside_the_tables():
    # a custom classifier or label rule is Python-only: no config names it
    assert "custom" not in ALGORITHMS and "custom" not in LABEL_RULES
    handle = type("Handle", (), {"fit": lambda self, X, y: None,
                                 "predict": lambda self, X: X})()
    assert ClassifierSpec("c", "custom", {"handle": handle}).hyperparameters == {"handle": handle}
    rule = LabelRule("custom", {"fn": len})
    assert rule.parameters == {"fn": len, "class_names": None}  # filled in, as built-ins are


def test_threshold_rules_are_the_kinds_that_read_self_reports():
    assert {k for k, kind in LABEL_RULES.items() if kind.questionnaire} == {
        "fixed-threshold", "dynamic-threshold"}


# --- the value predicates accept and reject as the config's did ---

YAML_VALUES = [0, 1, 2, 7, -1, -3, 10 ** 400, -(10 ** 400), 0.0, 0.5, 2.0, 2.5, -0.5,
               1e308, math.inf, -math.inf, math.nan, True, False, None, "3", "entropy",
               "gini", "", [], [1], ["ECG"], ["ECG", 1], {}, {"a": 1}]


def _old_positive(v):
    return type(v) in (int, float) and 0 < v < math.inf


def _old_at_least(floor):
    return lambda v: type(v) is int and v >= floor


def _old_at_least_zero(v):  # a huge int made math.isfinite raise
    return type(v) in (int, float) and -math.inf < v < math.inf and v >= 0


def _old_names(v):
    return bool(type(v) is list and v and all(type(n) is str for n in v))


@pytest.mark.parametrize("value", YAML_VALUES, ids=repr)
def test_predicates_match_the_config_checks_they_replace(value):
    assert POSITIVE[0](value) == _old_positive(value)
    assert AT_LEAST_ZERO[0](value) == _old_at_least_zero(value)
    for floor in (0, 1, 2):
        assert at_least(floor)[0](value) == _old_at_least(floor)(value)
    assert one_of("entropy")[0](value) == (value in ("entropy",))
    assert NAMES[0](value) == _old_names(value)
    # the dataset spec's field types
    assert INTEGER[0](value) == (type(value) is int)
    assert NUMBER[0](value) == (type(value) in (int, float))


# --- README tables ---

def _readme_table(header: str) -> dict[str, set[str]]:
    """Each row's first-column names mapped to the keys its second lists."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names, keys = line.strip("|").split("|")[:2]
        for name in re.findall(r"`([^`]+)`", names):
            table[name] = set(re.findall(r"`(\w+)`:", keys))
    return table


def test_readme_step_keys_match_step_ops():
    assert _readme_table("| op | keys |") == {op: set(keys) for op, keys in STEP_OPS.items()}


def test_readme_hyperparameters_match_algorithms():
    assert _readme_table("| algorithm | keys |") == {
        name: set(a.hyperparameters) for name, a in ALGORITHMS.items()}
