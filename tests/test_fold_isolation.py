"""Fold-isolation laws of cross-validation.

Whatever is fitted for a fold may depend on that fold's training rows only:
changing the test rows' values and labels leaves the fold's FittedModel
bit-identical.  Under LOSO no subject has rows on both sides of a fold, and
labels that carry no signal score near chance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affectpipe import (
    ClassifierSpec,
    CVStrategy,
    DatasetSpec,
    FeatureExtractor,
    FeatureMatrix,
    SignalAcquisition,
    SignalPreprocessor,
    WindowingPolicy,
    cross_validate,
    ecg_eda_catalog,
    make_folds,
    synth_dataset,
)
from affectpipe.engine import RunContext
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


@pytest.fixture(scope="module")
def three_class_matrix(tmp_path_factory):
    """The complete rows of the shipped 3-class set (dataset seed 3) under the
    default catalog and 60/30 s windows: 90 rows x 14 columns."""
    root = tmp_path_factory.mktemp("three_class")
    synth_dataset(DatasetSpec(n_subjects=6, phases=("rest", "amusement", "stress"),
                              duration_s=180.0, seed=3), root)
    payload = None
    for stage in (SignalAcquisition(["ECG", "EDA"], root), SignalPreprocessor(),
                  FeatureExtractor(ecg_eda_catalog(), WindowingPolicy(60.0, 30.0))):
        payload = stage.run(payload, RunContext())
    matrix, _ = payload.drop_incomplete_rows()
    assert matrix.values.shape == (90, 14)
    return matrix


def test_loso_scores_labels_drawn_per_subject_and_phase_at_chance(three_class_matrix):
    # 0/1 labels drawn at random per (subject, phase) block carry no signal,
    # so chance is 0.5.  Window-level 5-fold keeps a test window's
    # overlapping neighbours from its own block in training and scores about
    # 0.70 here; LOSO holds every block of the test subject out.  One draw
    # ranges 0.40-0.76, so the band is on the mean over 12 draws.
    m = three_class_matrix
    keys = list(zip(m.subject_ids.tolist(), m.phases.tolist()))
    blocks = sorted(set(keys))
    block = np.array([blocks.index(key) for key in keys])
    accuracies = []
    for seed in range(100, 112):
        y = np.random.default_rng(seed).integers(0, 2, len(blocks))[block]
        report = cross_validate([ClassifierSpec("knn1", "KNN", {"k_neighbors": 1})], m,
                                LabelVector(y, {0: "low", 1: "high"}), CVStrategy("loso"))
        accuracies.append(float(np.mean(report.in_row_order("knn1", "y_pred") == y)))
    assert 0.35 <= np.mean(accuracies) <= 0.65, accuracies
