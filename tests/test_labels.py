import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from affectpipe import (
    ClassifierSpec,
    CVStrategy,
    FeatureMatrix,
    LabelRule,
    SelfReport,
    SubjectBundle,
    WindowingPolicy,
    attach_labels,
    extract_features,
    generate_phase_labels,
    make_folds,
    sequential_forward_selection,
    stai_dynamic_threshold,
    suds_fixed_threshold,
)
from affectpipe import labels as labels_module
from affectpipe.classification import fit as fit_model, predict
from affectpipe.features import FeatureCatalogEntry
from affectpipe.labels import _forward_selection, load_reports
from affectpipe.errors import (
    InsufficientReports,
    KTooLarge,
    MissingReport,
    NonNumericFeature,
    SingleClass,
    TooFewRows,
    UnmappedPhase,
    WrongQuestionnaire,
)
from affectpipe.types import LabelVector

from conftest import make_series


def matrix_of(rows_spec, columns=("f",)):
    subjects, phases, windows, values = zip(*rows_spec)
    return FeatureMatrix(tuple(columns), subjects, phases, windows, values)


# --- phase labels ---

def test_phase_map_three_class():
    m = matrix_of([("S1", "baseline", 0, [1.0]), ("S1", "stress", 0, [2.0]),
                   ("S1", "amusement", 0, [3.0])])
    lv = generate_phase_labels(m, {"baseline": 0, "stress": 1, "amusement": 2})
    assert lv.labels.tolist() == [0, 1, 2]
    assert lv.class_names[2] == "amusement"


def test_phase_map_binary_merge():
    m = matrix_of([("S1", "baseline", 0, [1.0]), ("S1", "amusement", 0, [2.0]),
                   ("S1", "stress", 0, [3.0])])
    lv = generate_phase_labels(m, {"baseline": 0, "amusement": 0, "stress": 1})
    assert lv.labels.tolist() == [0, 0, 1]
    assert set(lv.class_names) == {0, 1}
    assert "baseline" in lv.class_names[0] and "amusement" in lv.class_names[0]


def test_phase_map_unmapped_phase():
    m = matrix_of([("S1", "recovery", 0, [1.0])])
    with pytest.raises(UnmappedPhase):
        generate_phase_labels(m, {"baseline": 0})


# --- SUDS fixed threshold ---

def test_suds_boundary_values():
    reports = [SelfReport("S1", "a", "SUDS", 50.0),
               SelfReport("S1", "b", "SUDS", 49.9),
               SelfReport("S1", "c", "SUDS", 100.0)]
    table = suds_fixed_threshold(reports)
    assert table[("S1", "a")] == 1
    assert table[("S1", "b")] == 0
    assert table[("S1", "c")] == 1


def test_suds_rejects_other_questionnaire():
    with pytest.raises(WrongQuestionnaire):
        suds_fixed_threshold([SelfReport("S1", "a", "STAI", 40.0)])


def test_suds_score_range_enforced():
    with pytest.raises(ValueError):
        SelfReport("S1", "a", "SUDS", 101.0)


@given(st.floats(0.0, 99.0), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_suds_monotone(score, bump):
    lo = suds_fixed_threshold([SelfReport("S1", "a", "SUDS", score)])[("S1", "a")]
    hi = suds_fixed_threshold(
        [SelfReport("S1", "a", "SUDS", min(score + bump, 100.0))])[("S1", "a")]
    assert hi >= lo


# --- STAI dynamic threshold ---

def test_stai_mean_threshold():
    reports = [SelfReport("S1", "rest", "STAI", 10.0),
               SelfReport("S1", "stress", "STAI", 20.0)]
    table = stai_dynamic_threshold(reports)
    assert table[("S1", "rest")] == 0
    assert table[("S1", "stress")] == 1


def test_stai_all_equal_scores_label_1():
    reports = [SelfReport("S1", p, "STAI", 42.0) for p in ("a", "b", "c")]
    table = stai_dynamic_threshold(reports)
    assert all(v == 1 for v in table.values())


def test_stai_single_report_raises():
    with pytest.raises(InsufficientReports):
        stai_dynamic_threshold([SelfReport("S1", "rest", "STAI", 30.0)])


def test_stai_per_subject_thresholds_independent():
    reports = [SelfReport("S1", "rest", "STAI", 10.0),
               SelfReport("S1", "stress", "STAI", 20.0),
               SelfReport("S2", "rest", "STAI", 60.0),
               SelfReport("S2", "stress", "STAI", 80.0)]
    table = stai_dynamic_threshold(reports)
    # S2's rest score of 60 is high in absolute terms but below S2's mean
    assert table[("S2", "rest")] == 0
    assert table[("S2", "stress")] == 1


@given(st.lists(st.floats(20.0, 60.0), min_size=2, max_size=6),
       st.floats(-10.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_stai_shift_invariance(scores, shift):
    # a score sitting exactly on the mean is a knife-edge case: one ulp of
    # rounding in the shifted mean legitimately flips its label, so only
    # scores clearly away from the mean are required to be shift-invariant
    mean = sum(scores) / len(scores)
    assume(all(abs(s - mean) > 1e-6 for s in scores))
    base = [SelfReport("S1", f"p{i}", "STAI", s) for i, s in enumerate(scores)]
    shifted = [SelfReport("S1", f"p{i}", "STAI", s + shift)
               for i, s in enumerate(scores)]
    assert stai_dynamic_threshold(base) == stai_dynamic_threshold(shifted)


# --- attach_labels ---

def _four_row_matrix():
    return matrix_of([("S1", "rest", 0, [1.0]), ("S1", "stress", 0, [2.0]),
                      ("S2", "rest", 0, [3.0]), ("S2", "stress", 0, [4.0])])


def test_attach_phase_map_bijection():
    m, lv, dropped = attach_labels(
        _four_row_matrix(),
        LabelRule("phase-map", {"phase_to_class": {"rest": 0, "stress": 1}}))
    assert len(lv.labels) == 4
    assert dropped == []
    lv.check_against(m)


def test_attach_drops_rows_without_reports():
    reports = [SelfReport("S1", "rest", "SUDS", 20.0),
               SelfReport("S1", "stress", "SUDS", 70.0),
               SelfReport("S2", "rest", "SUDS", 30.0)]
    m, lv, dropped = attach_labels(
        _four_row_matrix(), LabelRule("fixed-threshold"), reports)
    assert len(m) == 3
    assert dropped == [("S2", "stress", 0)]
    lv.check_against(m)


def test_attach_strict_escalates_missing_report():
    reports = [SelfReport("S1", "rest", "SUDS", 20.0)]
    with pytest.raises(MissingReport):
        attach_labels(_four_row_matrix(), LabelRule("fixed-threshold"),
                      reports, strict=True)


def test_attach_custom_rule_passthrough():
    rule = LabelRule("custom", {"fn": lambda m: (m.phases == "stress").astype(int),
                                "class_names": {0: "calm", 1: "stressed"}})
    m, lv, dropped = attach_labels(_four_row_matrix(), rule)
    assert lv.labels.tolist() == [0, 1, 0, 1]
    assert dropped == []
    with pytest.raises(ValueError, match="does not match row count"):
        attach_labels(_four_row_matrix(), LabelRule("custom", {"fn": lambda m: [0]}))


def test_load_reports_roundtrip(tmp_path):
    f = tmp_path / "S1_reports.csv"
    f.write_text("phase,questionnaire,score\nrest,SUDS,25.0\nstress,SUDS,75.0\n",
                 encoding="utf-8")
    reports = load_reports(f, "S1")
    assert [r.phase for r in reports] == ["rest", "stress"]
    assert reports[1].score == 75.0


# --- text tags, one-hot encoded by extract_features ---

def extract_cells(cells, names, calculate_average=False):
    """extract_features over 1 s windows whose custom computation returns
    ``cells[subject, phase][k]``, the raw values of window k, as ``names``."""
    n_windows = len(next(iter(cells.values())))
    series = {}
    for subject, phase in cells:
        series.setdefault(subject, []).append(
            make_series(np.zeros(10 * n_windows), 10.0, subject=subject, phase=phase))

    def raw(window, params):
        k = int(round(window.timestamps[0]))
        return dict(zip(names, cells[window.subject_id, window.phase][k]))

    entry = FeatureCatalogEntry("raw", "ECG", raw, features=tuple(names))
    return extract_features(SubjectBundle(series), WindowingPolicy(1.0, 1.0),
                            [entry], calculate_average)


def test_one_hot_binary_column():
    # tags are sorted, not taken in order of appearance
    enc = extract_cells({("S1", "a"): [(1.0, "wrist")], ("S1", "b"): [(2.0, "chest")],
                         ("S2", "a"): [(3.0, "wrist")]}, ("f", "device"))
    assert enc.columns == ("raw.f", "raw.device=chest", "raw.device=wrist")
    np.testing.assert_array_equal(enc.values, [[1.0, 0.0, 1.0], [2.0, 1.0, 0.0],
                                               [3.0, 0.0, 1.0]])


def test_one_hot_identity_on_numeric():
    cells = {("S1", "a"): [(1.0, 2), (3.0, 4)], ("S2", "a"): [(5.0, 6), (7.0, 8)]}
    enc = extract_cells(cells, ("f", "g"))
    assert enc.columns == ("raw.f", "raw.g")
    np.testing.assert_array_equal(enc.values, [[1, 2], [3, 4], [5, 6], [7, 8]])


def test_one_hot_degenerate_single_value():
    enc = extract_cells({("S1", "a"): [("x",)], ("S1", "b"): [("x",)]}, ("tag",))
    assert enc.columns == ("raw.tag=x",)
    np.testing.assert_array_equal(enc.values, [[1.0], [1.0]])


def test_one_hot_numerics_first_then_encodings():
    enc = extract_cells({("S1", "a"): [("u", 1.0, "x", 2.0)],
                         ("S1", "b"): [("v", 3.0, "y", 4.0)]},
                        ("c0", "c1", "c2", "c3"))
    assert enc.columns == ("raw.c1", "raw.c3", "raw.c0=u", "raw.c0=v",
                           "raw.c2=x", "raw.c2=y")


def test_one_hot_rejects_mixed_column():
    with pytest.raises(ValueError, match="'raw.tag' mixes numbers and text"):
        extract_cells({("S1", "a"): [("x",)], ("S1", "b"): [(1.0,)]}, ("tag",))


def test_one_hot_average_is_share_of_windows():
    enc = extract_cells({("S1", "a"): [("x",), ("y",), ("x",), ("x",)]}, ("tag",),
                        calculate_average=True)
    assert enc.columns == ("raw.tag=x", "raw.tag=y")
    np.testing.assert_array_equal(enc.values, [[0.75, 0.25]])


# --- sequential forward selection ---

KNN1 = ClassifierSpec("knn", "KNN", {"k_neighbors": 1})


def _sfs_fixture(seed=0):
    rng = np.random.default_rng(seed)
    n = 40
    y = np.array([0] * 20 + [1] * 20)
    cols = np.column_stack([
        y + rng.normal(0, 0.8, n),          # noisy informative
        y.astype(float),                    # perfectly separating
        rng.normal(0, 1, n),                # pure noise
        1 - y + rng.normal(0, 0.5, n),      # informative, inverted
        rng.normal(0, 1, n),                # pure noise
    ])
    m = FeatureMatrix(("c0", "c1", "c2", "c3", "c4"), ["S1"] * n, ["a"] * n,
                      range(n), cols)
    lv = LabelVector(tuple(y), {0: "low", 1: "high"})
    return m, lv


def test_sfs_selects_dominant_column():
    m, lv = _sfs_fixture()
    out = sequential_forward_selection(m, lv, KNN1, k=1)
    assert out.columns == ("c1",)


def test_sfs_matches_greedy_oracle():
    m, lv = _sfs_fixture()
    out = sequential_forward_selection(m, lv, KNN1, k=2, cv_folds=5, seed=0)

    # independent greedy replay over the same published fold protocol
    X = m.to_array()
    y = lv.to_array()
    folds = make_folds(CVStrategy("kfold", 5), m, 0)

    def acc(col_idx):
        scores = []
        for train, test in folds:
            model = fit_model(KNN1, X[np.ix_(train, col_idx)],
                              LabelVector(tuple(y[train]), {0: "l", 1: "h"}))
            pred, _ = predict(model, X[np.ix_(test, col_idx)])
            scores.append(float(np.mean(pred == y[test])))
        return float(np.mean(scores))

    selected = []
    for _ in range(2):
        candidates = [j for j in range(5) if j not in selected]
        best = max(candidates, key=lambda j: (acc(selected + [j]), -j))
        selected.append(best)
    assert out.columns == tuple(m.columns[j] for j in selected)


def test_sfs_k_too_large():
    m, lv = _sfs_fixture()
    with pytest.raises(KTooLarge):
        sequential_forward_selection(m, lv, KNN1, k=5)


def test_sfs_deterministic():
    m, lv = _sfs_fixture()
    a = sequential_forward_selection(m, lv, KNN1, k=3, seed=7)
    b = sequential_forward_selection(m, lv, KNN1, k=3, seed=7)
    assert a.columns == b.columns


class _Majority:
    """A bare fit/predict handle, not a ClassifierSpec."""

    def fit(self, X, y):
        self.label = np.bincount(y).argmax()

    def predict(self, X):
        return np.full(len(X), self.label)


def test_sfs_accepts_bare_handle_scorer():
    m, lv = _sfs_fixture()
    out = sequential_forward_selection(m, lv, _Majority(), k=2)
    # every column scores the same, so ties keep the lowest indices
    assert out.columns == ("c0", "c1")


# --- cached KNN scoring of SFS steps ---


def _greedy_reference(scorer, X, y, k, folds):
    """Greedy selection with one fit/predict per candidate set and fold:
    the selected indices and each step's {candidate: mean accuracy}."""
    selected, steps = [], []
    for _ in range(k):
        scores = {}
        for j in (j for j in range(X.shape[1]) if j not in selected):
            cols = selected + [j]
            accs = []
            for train, test in folds:
                model = fit_model(scorer, X[np.ix_(train, cols)], y[train])
                pred, _ = predict(model, X[np.ix_(test, cols)])
                accs.append(float(np.mean(pred == y[test])))
            scores[j] = float(np.mean(accs))
        steps.append(scores)
        selected.append(max(scores, key=lambda j: (scores[j], -j)))
    return selected, steps


def _selection_data(kind, n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n_rows)
    if kind == "null":  # labels carry no signal
        X = rng.normal(0, 1, (n_rows, n_cols)) * rng.uniform(0.1, 50, n_cols)
    elif kind == "integer":  # few distinct values, so distance ties everywhere
        X = rng.integers(0, 4, (n_rows, n_cols)) + 0.5 * y[:, None]
    else:
        X = rng.normal(0, 1, (n_rows, n_cols)) + rng.uniform(0, 1, n_cols) * y[:, None]
    # offsets and scales that make every z-scoring round differently
    X = X * rng.uniform(0.5, 30, n_cols) + rng.uniform(-100, 100, n_cols)
    return X, y


def _assert_matches_reference(scorer, X, y, k, seed=0):
    folds = make_folds(CVStrategy("kfold", 5), X, seed)
    got = _forward_selection(scorer, X, y, k, folds)
    assert got == _greedy_reference(scorer, X, y, k, folds)


@pytest.mark.parametrize("kind", ["normal", "integer", "null"])
@pytest.mark.parametrize("k_neighbors", [1, 4, 9])
def test_cached_knn_sfs_matches_fit_predict(kind, k_neighbors, monkeypatch):
    X, y = _selection_data(kind, 97, 6, seed=k_neighbors)
    scorer = ClassifierSpec("knn", "KNN", {"k_neighbors": k_neighbors})
    _assert_matches_reference(scorer, X, y, k=4)
    # below 8 columns the cached path makes no fit or predict call
    calls = []
    monkeypatch.setattr(labels_module, "fit",
                        lambda *a: calls.append(a) or fit_model(*a))
    _forward_selection(scorer, X, y, 4, make_folds(CVStrategy("kfold", 5), X))
    assert calls == []


@pytest.mark.parametrize("n_cols, k", [(4, 3), (10, 9)])
@pytest.mark.parametrize("seed", range(3))
def test_cached_knn_sfs_rounds_like_fit_to_the_last_bit(seed, n_cols, k):
    # every column is an affine map of one lattice, so all columns z-score
    # to the same vector in exact arithmetic; even lattice points train and
    # odd ones test (then the reverse), so every query sits midway between
    # two training values and only rounding picks its nearest row.  That
    # exposes the z-scoring (a one-column fit reduces its column pairwise, a
    # wider fit row by row) and, from 8 columns on, numpy's pairwise
    # distance sum
    rng = np.random.default_rng(seed)
    lattice = np.arange(400) % 40
    X = lattice[:, None] * rng.uniform(0.5, 30, n_cols) + rng.uniform(-100, 100, n_cols)
    y = rng.integers(0, 2, 400)
    even, odd = np.flatnonzero(lattice % 2 == 0), np.flatnonzero(lattice % 2 == 1)
    folds = [(even, odd), (odd, even)]
    got = _forward_selection(KNN1, X, y, k, folds)
    assert got == _greedy_reference(KNN1, X, y, k, folds)


def test_cached_knn_sfs_falls_back_from_eight_columns():
    X, y = _selection_data("normal", 50, 10, seed=8)
    _assert_matches_reference(ClassifierSpec("knn", "KNN", {"k_neighbors": 9}),
                              X, y, k=9)


@pytest.mark.parametrize("scorer", [
    ClassifierSpec("tree", "DecisionTree", {"max_depth": 2}),
    ClassifierSpec("majority", "custom", {"handle": _Majority()}),
])
def test_non_knn_scorers_keep_fit_predict(scorer):
    X, y = _selection_data("normal", 40, 4, seed=3)
    _assert_matches_reference(scorer, X, y, k=2)


def test_cached_knn_sfs_raises_fit_errors():
    m, lv = _sfs_fixture()
    values = m.to_array()
    values[7, 3] = np.nan
    bad = FeatureMatrix(m.columns, m.subject_ids, m.phases, m.window_indices, values)
    with pytest.raises(NonNumericFeature):
        sequential_forward_selection(bad, lv, KNN1, k=2)
    with pytest.raises(SingleClass):
        sequential_forward_selection(m, LabelVector((0,) * 39 + (1,), {0: "l", 1: "h"}),
                                     KNN1, k=2)
    with pytest.raises(ValueError, match="k_neighbors"):
        sequential_forward_selection(
            m, lv, ClassifierSpec("knn0", "KNN", {"k_neighbors": 0}), k=2)


def test_sfs_folds_are_the_evaluation_folds(monkeypatch):
    m, lv = _sfs_fixture()
    seen = []
    monkeypatch.setattr(labels_module, "_forward_selection",
                        lambda scorer, X, y, k, folds: seen.append(folds) or ([0], []))
    sequential_forward_selection(m, lv, KNN1, k=1, cv_folds=4, seed=9)
    expected = make_folds(CVStrategy("kfold", 4), m, 9)
    assert len(seen[0]) == len(expected)
    for (train, test), (e_train, e_test) in zip(seen[0], expected):
        assert np.array_equal(train, e_train) and np.array_equal(test, e_test)


@pytest.mark.parametrize("cv_folds", [1, 0])
def test_sfs_rejects_fewer_than_two_folds(cv_folds):
    m, lv = _sfs_fixture()
    with pytest.raises(TooFewRows):
        sequential_forward_selection(m, lv, KNN1, k=1, cv_folds=cv_folds)
