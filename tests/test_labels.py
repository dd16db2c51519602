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
from affectpipe import classification, labels as labels_module
from affectpipe.classification import fit as fit_model, forward_selection, predict
from affectpipe.features import FeatureCatalogEntry
from affectpipe.labels import load_reports
from affectpipe.errors import (
    InsufficientReports,
    KTooLarge,
    MissingHeader,
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


def test_questionnaire_names_match_whatever_their_case():
    assert SelfReport("S1", "a", "suds", 10.0).questionnaire == "SUDS"
    assert suds_fixed_threshold([SelfReport("S1", "a", "Suds", 60.0)]) == {("S1", "a"): 1}
    assert stai_dynamic_threshold([SelfReport("S1", p, "stai", v)
                                   for p, v in (("a", 30.0), ("b", 50.0))]) == {
        ("S1", "a"): 0, ("S1", "b"): 1}
    with pytest.raises(ValueError):
        SelfReport("S1", "a", "suds", 101.0)  # the SUDS range holds in any case


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


def test_attach_threshold_rules_read_their_own_questionnaire():
    # SUDS rates each subject's rest phase high and stress low; STAI the reverse
    suds = [SelfReport("S1", "rest", "SUDS", 80.0), SelfReport("S1", "stress", "SUDS", 20.0),
            SelfReport("S2", "rest", "SUDS", 60.0), SelfReport("S2", "stress", "SUDS", 10.0)]
    stai = [SelfReport("S1", "rest", "STAI", 30.0), SelfReport("S1", "stress", "STAI", 50.0),
            SelfReport("S2", "rest", "STAI", 20.0), SelfReport("S2", "stress", "STAI", 40.0)]
    _, fixed, _ = attach_labels(_four_row_matrix(), LabelRule("fixed-threshold"),
                                suds + stai)
    _, dynamic, _ = attach_labels(_four_row_matrix(), LabelRule("dynamic-threshold"),
                                  stai + suds)
    assert fixed.labels.tolist() == [1, 0, 1, 0]
    assert dynamic.labels.tolist() == [0, 1, 0, 1]
    with pytest.raises(MissingReport, match="STAI"):
        attach_labels(_four_row_matrix(), LabelRule("dynamic-threshold"), suds)


def test_attach_custom_rule_passthrough():
    rule = LabelRule("custom", {"fn": lambda m: (m.phases == "stress").astype(int),
                                "class_names": {0: "calm", 1: "stressed"}})
    m, lv, dropped = attach_labels(_four_row_matrix(), rule)
    assert lv.labels.tolist() == [0, 1, 0, 1]
    assert dropped == []
    with pytest.raises(ValueError, match="does not match row count"):
        attach_labels(_four_row_matrix(), LabelRule("custom", {"fn": lambda m: [0]}))


@pytest.mark.parametrize("parameters, match", [
    ({}, "missing 'custom.fn'"),
    ({"fn": 3}, "custom.fn must be a callable, got 3"),
    ({"fn": len, "class_names": ["low", "high"]}, "custom.class_names must be a mapping"),
    ({"fn": len, "classes": {0: "low"}}, "unknown keys: custom.classes"),
])
def test_custom_rule_is_checked_when_built(parameters, match):
    with pytest.raises(ValueError, match=match):
        LabelRule("custom", parameters)


def test_load_reports_roundtrip(tmp_path):
    f = tmp_path / "S1_reports.csv"
    f.write_text("phase,questionnaire,score\nrest,SUDS,25.0\nstress,SUDS,75.0\n",
                 encoding="utf-8")
    reports = load_reports(f, "S1")
    assert [r.phase for r in reports] == ["rest", "stress"]
    assert reports[1].score == 75.0


@pytest.mark.parametrize("header", ["questionnaire,score", "phase,score", "phase,questionnaire"],
                         ids=["no-phase", "no-questionnaire", "no-score"])
def test_load_reports_names_a_missing_column_and_the_file(tmp_path, header):
    f = tmp_path / "S1_reports.csv"
    f.write_text(f"{header}\nrest,25.0\n", encoding="utf-8")
    missing = ({"phase", "questionnaire", "score"} - set(header.split(","))).pop()
    with pytest.raises(MissingHeader) as e:
        load_reports(f, "S1")
    assert e.value.name == missing
    assert str(e.value) == f"missing required CSV header: {missing!r} in {f}"


def test_load_reports_names_the_line_of_a_score_that_is_not_a_number(tmp_path):
    f = tmp_path / "S1_reports.csv"
    f.write_text("phase,questionnaire,score\nrest,SUDS,25.0\nstress,SUDS,abc\n",
                 encoding="utf-8")
    with pytest.raises(ValueError) as e:
        load_reports(f, "S1")
    assert str(e.value) == f"{f} line 3: score 'abc' is not a number"


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


@pytest.mark.parametrize("k", [0, -1])
def test_sfs_rejects_k_below_one(k):
    # k < 1 used to return a matrix of zero columns
    m, lv = _sfs_fixture()
    with pytest.raises(KTooLarge, match="at least 1"):
        sequential_forward_selection(m, lv, KNN1, k=k)


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


def test_sfs_rejects_a_scorer_without_fit_and_predict():
    m, lv = _sfs_fixture()
    with pytest.raises(ValueError, match="custom.handle must be an object with callable fit"):
        sequential_forward_selection(m, lv, object(), k=2)


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


def _assert_same_search(got, want):
    """``got``, the ``(selected, steps)`` of :func:`forward_selection`,
    selects as the reference ``want`` does, and checks every candidate of
    every step: one the search scored holds the reference's exact score, and
    one it dropped cannot win, its reference score below the step's best or
    equal to it with a higher index than the winner."""
    (selected, steps), (want_selected, want_steps) = got, want
    assert selected == want_selected
    assert len(steps) == len(want_steps)
    for step, want_step, winner in zip(steps, want_steps, want_selected):
        assert winner in step and set(step) <= set(want_step)
        best = want_step[winner]
        for j, score in want_step.items():
            if j in step:
                assert step[j] == score
            else:
                assert score < best or (score == best and j > winner)


def _assert_matches_reference(scorer, X, y, k, seed=0):
    folds = make_folds(CVStrategy("kfold", 5), X, seed)
    _assert_same_search(forward_selection(scorer, X, y, k, folds),
                        _greedy_reference(scorer, X, y, k, folds))


def _knn_step(scorer, X, y, folds, selected, candidates):
    """The scores one step of the cached KNN search keeps: those of the
    candidates in ``candidates`` it scores to the end."""
    hits = classification._KnnFolds(scorer, X, y, folds).step_hits(selected)
    return classification._step_scores(candidates, hits,
                                       np.array([test.size for _, test in folds]))


def _knn_scores(scorer, X, y, folds, selected, candidates):
    """Each candidate's cached KNN score, each scored in a step of its own,
    so none is dropped."""
    return {j: _knn_step(scorer, X, y, folds, selected, [j])[j] for j in candidates}


#: Near-set sizes the cached search is checked at: 1, so most (candidate,
#: query) pairs fall back to every training row; the default; and more than
#: any fold's training rows, so the near set is all rows but one.
NEAR_ROWS = (1, classification.KNN_NEAR_ROWS, 10**6)


def _near_rows(monkeypatch):
    """Each of :data:`NEAR_ROWS`, set as the search's near-set size."""
    for near_rows in NEAR_ROWS:
        monkeypatch.setattr(classification, "KNN_NEAR_ROWS", near_rows)
        yield near_rows


@pytest.mark.parametrize("kind", ["normal", "integer", "null"])
@pytest.mark.parametrize("k_neighbors", [1, 4, 9])
def test_cached_knn_sfs_matches_fit_predict(kind, k_neighbors, monkeypatch):
    scorer = ClassifierSpec("knn", "KNN", {"k_neighbors": k_neighbors})
    calls = []
    monkeypatch.setattr(classification, "fit",
                        lambda *a: calls.append(a) or fit_model(*a))
    # the wide case scores sets of 8 or more columns, where numpy's own
    # sums turn pairwise
    for n_rows, n_cols, k in ((97, 6, 4), (50, 10, 9)):
        X, y = _selection_data(kind, n_rows, n_cols, seed=k_neighbors)
        for _ in _near_rows(monkeypatch):
            _assert_matches_reference(scorer, X, y, k=k)
    # the cached path makes no fit or predict call at any set size
    assert calls == []


@pytest.mark.parametrize("kind", ["normal", "integer", "null"])
@pytest.mark.parametrize("k_neighbors", [1, 4, 9])
def test_cached_knn_sfs_in_ragged_blocks_matches_fit_predict(kind, k_neighbors,
                                                             monkeypatch):
    # 3 test rows per distance block: each fold's 19 or 20 test rows score
    # in several blocks and a short last one
    monkeypatch.setattr(classification, "KNN_BLOCK_BYTES", 8 * 78 * 3)
    scorer = ClassifierSpec("knn", "KNN", {"k_neighbors": k_neighbors})
    X, y = _selection_data(kind, 97, 6, seed=k_neighbors)
    folds = make_folds(CVStrategy("kfold", 5), X, 0)
    for train, test in folds:
        sizes = [len(range(test.size)[rows])
                 for rows in classification._row_blocks(train.size, test.size)]
        assert sizes[0] > 1 and len(sizes) > 1 and sizes[-1] < sizes[0]
    want = _greedy_reference(scorer, X, y, 4, folds)
    for _ in _near_rows(monkeypatch):
        _assert_same_search(forward_selection(scorer, X, y, 4, folds), want)


@pytest.mark.parametrize("n_cols, k", [(4, 3), (10, 9)])
@pytest.mark.parametrize("seed", range(3))
def test_cached_knn_sfs_rounds_like_fit_to_the_last_bit(seed, n_cols, k, monkeypatch):
    # every column is an affine map of one lattice, so all columns z-score
    # to the same vector in exact arithmetic; even lattice points train and
    # odd ones test (then the reverse), so every query sits midway between
    # two training values and only rounding picks its nearest row.  That
    # exposes any z-scoring or distance sum whose rounding depends on the
    # other columns, as numpy's own reductions would (row by row across 2
    # or more columns, pairwise from 8 terms)
    rng = np.random.default_rng(seed)
    lattice = np.arange(400) % 40
    X = lattice[:, None] * rng.uniform(0.5, 30, n_cols) + rng.uniform(-100, 100, n_cols)
    y = rng.integers(0, 2, 400)
    even, odd = np.flatnonzero(lattice % 2 == 0), np.flatnonzero(lattice % 2 == 1)
    folds = [(even, odd), (odd, even)]
    want = _greedy_reference(KNN1, X, y, k, folds)
    for _ in _near_rows(monkeypatch):
        _assert_same_search(forward_selection(KNN1, X, y, k, folds), want)


def _count_full_rows(monkeypatch) -> list[int]:
    """The number of query rows of each (candidate, query block) that the
    search scores against every training row, appended as it runs."""
    full_rows = []
    full_hits = classification._full_hits
    monkeypatch.setattr(classification, "_full_hits", lambda fold, total, j, queries:
                        full_rows.append(queries.size) or full_hits(fold, total, j, queries))
    return full_rows


def test_cached_knn_sfs_scores_most_queries_from_the_near_set(monkeypatch):
    # four tight clusters, far apart in every column: once a column is
    # selected, a query's nearest rows in the near set lie well inside the
    # bound, so few (candidate, query) pairs need every training row
    rng = np.random.default_rng(4)
    cluster = np.arange(400) % 4
    X = cluster[:, None] * 50.0 + rng.normal(0, 1, (400, 5))
    y = (cluster + (rng.random(400) < 0.1)) % 2
    folds = make_folds(CVStrategy("kfold", 5), X, 0)
    full_rows = _count_full_rows(monkeypatch)
    # the reference's second step, scored with its first choice selected
    (first, _), (_, want) = _greedy_reference(KNN1, X, y, 2, folds)
    candidates = [j for j in range(5) if j != first]
    scores = _knn_scores(KNN1, X, y, folds, [first], candidates)
    assert 0 < sum(full_rows) < X.shape[0]
    assert scores == want


def test_cached_knn_sfs_falls_back_on_a_tie_with_the_bound(monkeypatch):
    # training rows 1 and 2 tie at distance 0 from the query in both columns;
    # with a near set of one row the other lies outside it at exactly the
    # bound, so the vote is not decided and the query takes every row, where
    # the tie breaks to row 1 and its label
    monkeypatch.setattr(classification, "KNN_NEAR_ROWS", 1)
    full_rows = _count_full_rows(monkeypatch)
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [0.0, 0.0]])
    y = np.array([0, 1, 0, 1, 1])
    folds = [(np.arange(4), np.array([4]))]
    assert _knn_step(KNN1, X, y, folds, [0], [1]) == {1: 1.0}
    assert full_rows == [1]


def _fit_predict_accuracy(scorer, X, y, folds, cols):
    """Mean accuracy over ``folds`` of a fit and predict on columns ``cols``."""
    return float(np.mean([np.mean(predict(fit_model(scorer, X[np.ix_(train, cols)], y[train]),
                                          X[np.ix_(test, cols)])[0] == y[test])
                          for train, test in folds]))


@pytest.mark.parametrize("selected", [[], [1]])
def test_cached_knn1_sfs_breaks_a_nearest_tie_in_the_near_set_to_the_lower_row(
        selected, monkeypatch):
    # training rows 10 (label 1) and 50 (label 0) are copies of the query,
    # far from the rest in both columns: the nearest distance, 0, ties
    # between two near rows, well below the bound, and the lower row's
    # label wins without a fall-back
    rng = np.random.default_rng(7)
    X = rng.normal(0, 1, (151, 2))
    X[[10, 50, 150]] = 5.0
    y = (rng.random(151) < 0.5).astype(int)
    y[[10, 50, 150]] = [1, 0, 1]
    folds = [(np.arange(150), np.array([150]))]
    full_rows = _count_full_rows(monkeypatch)
    assert _knn_step(KNN1, X, y, folds, selected, [0]) == {0: 1.0}
    assert _fit_predict_accuracy(KNN1, X, y, folds, selected + [0]) == 1.0
    assert full_rows == []


@pytest.mark.parametrize("k_neighbors", [1, 4])
@pytest.mark.parametrize("selected", [[], [1]])
def test_cached_knn_sfs_falls_back_when_the_kth_distance_ties_with_the_bound(
        selected, k_neighbors, monkeypatch):
    # the query is (1, 1), as are 50 of the 200 training rows; 100 share
    # each value, more than a near set holds, so the k-th nearest distance
    # (0) equals the bound of the column window and of the sum window: the
    # vote is left to every training row
    i = np.arange(201)
    X = np.column_stack([(i // 2) % 2, i % 2]).astype(float)
    X[200] = 1.0
    y = np.random.default_rng(k_neighbors).integers(0, 2, 201)
    folds = [(np.arange(200), np.array([200]))]
    scorer = ClassifierSpec("knn", "KNN", {"k_neighbors": k_neighbors})
    full_rows = _count_full_rows(monkeypatch)
    scores = _knn_step(scorer, X, y, folds, selected, [0])
    assert scores == {0: _fit_predict_accuracy(scorer, X, y, folds, selected + [0])}
    assert full_rows == [1]


@pytest.mark.parametrize("k_neighbors", [1, 9])
def test_cached_knn_sfs_first_step_scores_spread_columns_from_windows(k_neighbors,
                                                                      monkeypatch):
    # distinct values in every column: each query's nearest rows lie well
    # inside the window around its place in the sorted column, so no pair
    # of the first step needs every training row
    scorer = ClassifierSpec("knn", "KNN", {"k_neighbors": k_neighbors})
    X, y = _selection_data("normal", 400, 5, seed=k_neighbors)
    folds = make_folds(CVStrategy("kfold", 5), X, 0)
    full_rows = _count_full_rows(monkeypatch)
    scores = _knn_scores(scorer, X, y, folds, [], range(5))
    assert full_rows == []
    assert scores == _greedy_reference(scorer, X, y, 1, folds)[1][0]


@pytest.mark.parametrize("k_neighbors", [1, 4, 9])
def test_cached_knn_sfs_first_step_falls_back_on_long_duplicate_runs(k_neighbors,
                                                                     monkeypatch):
    # column 0 takes 3 values, so each fold's runs of equal training values
    # (about 107 rows) are longer than the window: a query's window and the
    # rows just outside it lie at the same distance, and the first step
    # scores those pairs against every training row
    rng = np.random.default_rng(k_neighbors)
    X, y = _selection_data("normal", 400, 4, seed=k_neighbors)
    X[:, 0] = rng.integers(0, 3, 400) * 7.0 - 5.0
    scorer = ClassifierSpec("knn", "KNN", {"k_neighbors": k_neighbors})
    folds = make_folds(CVStrategy("kfold", 5), X, 0)
    full_rows = _count_full_rows(monkeypatch)
    _knn_step(scorer, X, y, folds, [], [0])
    assert sum(full_rows) == X.shape[0]
    _assert_matches_reference(scorer, X, y, k=3)


def test_cached_knn_sfs_first_step_falls_back_on_a_tie_with_the_bound(monkeypatch):
    # the query (0) sits between training values -1 (row 1) and 1 (row 2),
    # which z-score to exact opposites; a window of one row holds row 2 and
    # row 1 lies just outside it at exactly the bound, so the query takes
    # every row, where the tie breaks to row 1 and its label
    monkeypatch.setattr(classification, "KNN_NEAR_ROWS", 1)
    full_rows = _count_full_rows(monkeypatch)
    X = np.array([[2.0], [-1.0], [1.0], [-2.0], [0.0]])
    y = np.array([0, 1, 0, 0, 1])
    folds = [(np.arange(4), np.array([4]))]
    assert _knn_step(KNN1, X, y, folds, [], [0]) == {0: 1.0}
    assert full_rows == [1]


@pytest.mark.parametrize("kind", ["normal", "integer"])
def test_cached_knn_sfs_scores_candidates_in_capped_blocks(kind, monkeypatch):
    # 96 training rows and 24 test rows per fold, near sets of 16 rows and
    # a cap of two full-row queries: each candidate's one near-set call per
    # fold takes all 24 test rows and votes them in two blocks of 12, and
    # each full-row vote takes at most 2 queries, none above the byte cap
    monkeypatch.setattr(classification, "KNN_BLOCK_BYTES", 8 * 96 * 2)
    monkeypatch.setattr(classification, "KNN_NEAR_ROWS", 16)
    calls, votes = [], []  # test rows per near-set call; (queries, rows) per vote
    near_hits, knn_vote = classification._near_hits, classification._knn_vote
    monkeypatch.setattr(classification, "_near_hits", lambda fold, j, near, sums, bound: (
        calls.append(near.shape[0]) or near_hits(fold, j, near, sums, bound)))
    monkeypatch.setattr(classification, "_knn_vote", lambda d, y, classes, k: (
        votes.append(d.shape) or knn_vote(d, y, classes, k)))
    scorer = ClassifierSpec("knn", "KNN", {"k_neighbors": 4})
    X, y = _selection_data(kind, 120, 16, seed=5)
    _assert_matches_reference(scorer, X, y, k=3)
    assert set(calls) == {24}
    assert [q for q, rows in votes if rows == 16] == [12, 12] * len(calls)
    assert {rows for _, rows in votes} == {16, 96}
    assert all(8 * q * rows <= classification.KNN_BLOCK_BYTES for q, rows in votes)


def test_cached_knn_sfs_falls_back_from_eight_columns(monkeypatch):
    # sets of 8 or more columns once fell back to fit/predict; the cached
    # path now scores them too, and still matches the reference
    X, y = _selection_data("normal", 50, 10, seed=8)
    scorer = ClassifierSpec("knn", "KNN", {"k_neighbors": 9})
    _assert_matches_reference(scorer, X, y, k=9)
    calls = []
    monkeypatch.setattr(classification, "fit",
                        lambda *a: calls.append(a) or fit_model(*a))
    forward_selection(scorer, X, y, 9, make_folds(CVStrategy("kfold", 5), X))
    assert calls == []


def test_knn_sfs_stops_a_step_at_a_perfect_score(monkeypatch):
    # column 0 alone separates the classes, so its KNN-1 score is 1.0 and
    # no later candidate can beat it: none is scored on any fold
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, 100)
    X = rng.normal(0, 1, (100, 4))
    X[:, 0] += 10.0 * y
    scored = []  # the candidate of each near-set call
    near_hits = classification._near_hits
    monkeypatch.setattr(classification, "_near_hits", lambda fold, j, *window: (
        scored.append(j) or near_hits(fold, j, *window)))
    folds = make_folds(CVStrategy("kfold", 5), X, 0)
    selected, steps = forward_selection(KNN1, X, y, 1, folds)
    assert selected == [0] and steps == [{0: 1.0}]
    assert scored == [0] * 5
    _assert_same_search((selected, steps), _greedy_reference(KNN1, X, y, 1, folds))


def test_knn_sfs_keeps_the_lower_index_when_a_later_candidate_ties():
    # column 2 is a copy of column 0, the most informative column, so it
    # scores the same on every fold: it is scored to the end, as the bound
    # before its last fold is above the best, and the tie keeps column 0
    rng = np.random.default_rng(6)
    y = rng.integers(0, 2, 97)
    X = rng.normal(0, 1, (97, 4)) + 0.5 * y[:, None]
    X[:, 0] += 1.5 * y
    X[:, 2] = X[:, 0]
    folds = make_folds(CVStrategy("kfold", 5), X, 0)
    want = _greedy_reference(KNN1, X, y, 2, folds)
    selected, steps = forward_selection(KNN1, X, y, 2, folds)
    assert selected[0] == 0 and steps[0][2] == steps[0][0] < 1.0
    _assert_same_search((selected, steps), want)


def test_fit_predict_sfs_drops_a_candidate_between_folds(monkeypatch):
    # a stump on column 0 scores about 0.85; one on the noise column 1
    # scores so low on its first folds that even perfect later folds could
    # not reach that, so column 1 is dropped before its last fold
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, 100)
    # column 1 lies above 500, column 0 below
    X = np.column_stack([y + rng.normal(0, 0.5, 100), rng.normal(1000, 1, 100)])
    stump = ClassifierSpec("stump", "DecisionTree", {"max_depth": 1})
    fits = []  # the candidate of each fit
    monkeypatch.setattr(classification, "fit", lambda spec, Xs, ys: (
        fits.append(int(Xs[0, 0] > 500)) or fit_model(spec, Xs, ys)))
    folds = make_folds(CVStrategy("kfold", 5), X, 0)
    selected, steps = forward_selection(stump, X, y, 1, folds)
    assert selected == [0] and list(steps[0]) == [0]
    assert fits.count(0) == 5 and 0 < fits.count(1) < 5
    _assert_same_search((selected, steps), _greedy_reference(stump, X, y, 1, folds))


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
    monkeypatch.setattr(labels_module, "forward_selection",
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
