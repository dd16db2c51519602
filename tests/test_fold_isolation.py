"""Fold-isolation laws of cross-validation.

Whatever is fitted for a fold may depend on that fold's training rows only:
changing the test rows' values and labels leaves the fold's FittedModel
bit-identical.  Under LOSO no subject has rows on both sides of a fold.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affectpipe import ClassifierSpec, CVStrategy, FeatureMatrix, cross_validate, make_folds
from affectpipe.types import LabelVector

SPECS = [ClassifierSpec("knn3", "KNN", {"k_neighbors": 3}),
         ClassifierSpec("tree", "DecisionTree"),
         ClassifierSpec("lda", "LDA"),
         ClassifierSpec("logit", "LogisticRegression")]
STRATEGIES = [CVStrategy("loso"), CVStrategy("kfold", 5)]
N_SUBJECTS, N_WINDOWS, N_COLUMNS = 5, 3, 4


def _dataset():
    """5 subjects x rest/stress x 3 windows, 4 columns shifted by phase."""
    rng = np.random.default_rng(7)
    keys = [(f"S{s}", phase, k) for s in range(1, N_SUBJECTS + 1)
            for phase in ("rest", "stress") for k in range(N_WINDOWS)]
    y = np.array([phase == "stress" for _, phase, _ in keys], dtype=np.int64)
    X = rng.normal(0.0, 1.0, (len(keys), N_COLUMNS)) + y[:, None]
    matrix = FeatureMatrix(tuple(f"f{j}" for j in range(N_COLUMNS)),
                           *zip(*keys), X)
    return matrix, y


def _bits(value):
    """``value`` as nested tuples of exact bits: equal bits, equal result."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return ("dict",) + tuple((key, _bits(v)) for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_bits(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return ("float", np.float64(value).tobytes())
    return (type(value).__name__, value)


def _model_bits(model):
    return _bits((model.classes, model.mu, model.sigma, model.state, model.columns))


MATRIX, LABELS = _dataset()
N_ROWS = len(LABELS)
BASE = {strategy.kind: cross_validate(SPECS, MATRIX, LabelVector(LABELS, {0: "low", 1: "high"}),
                                      strategy, seed=3)
        for strategy in STRATEGIES}


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_perturbing_a_folds_test_rows_leaves_its_models_bit_identical(strategy, data):
    folds = make_folds(strategy, MATRIX, seed=3)
    fold = data.draw(st.integers(0, len(folds) - 1), label="fold")
    test = folds[fold][1]
    values = data.draw(st.lists(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=N_COLUMNS,
                 max_size=N_COLUMNS), min_size=test.size, max_size=test.size), label="values")
    labels = data.draw(st.lists(st.integers(0, 1), min_size=test.size, max_size=test.size),
                       label="labels")
    X, y = MATRIX.to_array(), LABELS.copy()
    X[test], y[test] = values, labels
    perturbed = FeatureMatrix(MATRIX.columns, MATRIX.subject_ids, MATRIX.phases,
                              MATRIX.window_indices, X)
    report = cross_validate(SPECS, perturbed, LabelVector(y, {0: "low", 1: "high"}),
                            strategy, seed=3)
    for spec in SPECS:
        before = BASE[strategy.kind].per_model[spec.name][fold]
        after = report.per_model[spec.name][fold]
        np.testing.assert_array_equal(after.test, test)
        assert _model_bits(after.model) == _model_bits(before.model), spec.name


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=N_ROWS, max_size=N_ROWS).filter(
    # 2 or more subjects, and both classes in every fold's training rows
    lambda ids: len(set(ids)) >= 2 and all(
        set(LABELS[np.array(ids) != i].tolist()) == {0, 1} for i in set(ids))))
def test_loso_never_puts_one_subject_in_train_and_test(ids):
    subjects = np.array([f"S{i}" for i in ids])
    matrix = FeatureMatrix(MATRIX.columns, subjects, MATRIX.phases,
                           np.arange(N_ROWS), MATRIX.values)
    report = cross_validate(SPECS[:1], matrix, LabelVector(LABELS, {0: "low", 1: "high"}),
                            CVStrategy("loso"))
    records = report.per_model["knn3"]
    assert len(records) == len(set(ids))
    for r in records:
        assert not set(subjects[r.train]) & set(subjects[r.test])
        assert len(set(subjects[r.test])) == 1
    # every row is tested once
    assert sorted(np.concatenate([r.test for r in records]).tolist()) == list(range(N_ROWS))
