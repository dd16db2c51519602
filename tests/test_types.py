import numpy as np
import pytest
from hypothesis import given, strategies as st

from affectpipe import (
    FeatureMatrix,
    LabelVector,
    Modality,
    SubjectBundle,
    TimeSeries,
    validate_time_series,
)
from affectpipe.errors import ValidationFailed


class Candidate:
    def __init__(self, timestamps, values, fs):
        self.timestamps = timestamps
        self.values = values
        self.sample_rate_hz = fs


def test_conforming_series_is_ok():
    assert validate_time_series(Candidate([0.0, 0.004, 0.008], [1, 2, 3], 250)) == ()


def test_non_increasing_timestamp_reported_with_index():
    violations = validate_time_series(Candidate([0.0, 0.0, 0.004], [1, 2, 3], 250))
    assert violations
    v = next(v for v in violations if "non-increasing" in v.message)
    assert v.index == 1


def test_length_mismatch_reported():
    violations = validate_time_series(Candidate([0.0, 0.004, 0.008], [1, 2], 250))
    assert any("length mismatch" in v.message for v in violations)


def test_invalid_series_cannot_be_constructed():
    with pytest.raises(ValidationFailed):
        TimeSeries("S1", "rest", Modality("ECG"), [0.0, 0.0], [1, 2], 250)


def test_series_arrays_are_immutable():
    s = TimeSeries("S1", "rest", Modality("ECG"), [0.0, 0.004], [1.0, 2.0], 250)
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_series_leaves_the_callers_arrays_writable():
    t, x = np.arange(4) * 0.004, np.array([1.0, 2.0, 3.0, 4.0])
    s = TimeSeries("S1", "rest", Modality("ECG"), t, x, 250)
    f = s.with_values(x)
    t[0], x[0] = -1.0, 9.0  # float64 input, so no conversion made a copy
    np.testing.assert_array_equal(s.timestamps, np.arange(4) * 0.004)
    np.testing.assert_array_equal(s.values, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(f.values, [1.0, 2.0, 3.0, 4.0])


def test_window_is_a_read_only_view_built_without_revalidation(monkeypatch):
    s = TimeSeries("S1", "rest", Modality("ECG"), np.arange(6) * 0.004,
                   [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 250)
    from affectpipe import types
    monkeypatch.setattr(types, "validate_time_series",
                        lambda series: pytest.fail("window re-validated"))
    w = s.window(1, 4)
    assert (w.subject_id, w.phase, w.modality, w.sample_rate_hz) == \
        ("S1", "rest", Modality("ECG"), 250)
    assert np.shares_memory(w.values, s.values)
    np.testing.assert_array_equal(w.timestamps, s.timestamps[1:4])
    np.testing.assert_array_equal(w.values, [2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        w.values[0] = 9.0
    for start, stop in ((2, 3), (-1, 3), (4, 7), (3, 2)):
        with pytest.raises(ValueError, match="2 or more"):
            s.window(start, stop)


def test_with_values_shares_the_grid_without_revalidation(monkeypatch):
    s = TimeSeries("S1", "rest", Modality("ECG"), np.arange(4) * 0.004,
                   [1.0, 2.0, 3.0, 4.0], 250)
    from affectpipe import types
    monkeypatch.setattr(types, "validate_time_series",
                        lambda series: pytest.fail("with_values re-validated"))
    f = s.with_values(np.array([4, 3, 2, 1]))  # integers become float64
    assert (f.subject_id, f.phase, f.modality, f.sample_rate_hz) == \
        ("S1", "rest", Modality("ECG"), 250)
    assert f.timestamps is s.timestamps
    assert f.values.dtype == np.float64
    np.testing.assert_array_equal(f.values, [4.0, 3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        f.values[0] = 9.0
    for values in ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0]):
        with pytest.raises(ValidationFailed, match="length mismatch"):
            s.with_values(values)


def _series(subject, phase="rest", modality="ECG"):
    return TimeSeries(subject, phase, Modality(modality),
                      [0.0, 1.0, 2.0], [0.0, 1.0, 0.0], 1.0)


def test_bundle_rejects_wrong_subject_filing():
    with pytest.raises(ValueError):
        SubjectBundle({"S1": [_series("S2")]})


def test_bundle_rejects_duplicate_phase_modality():
    with pytest.raises(ValueError):
        SubjectBundle({"S1": [_series("S1"), _series("S1")]})


def test_modality_keeps_its_name_upper_cased():
    assert Modality("ecg").name == Modality("Ecg").name == "ECG"
    assert Modality("ecg") == Modality("ECG")


def test_bundle_modality_names_match_whatever_their_case():
    bundle = SubjectBundle({"S1": [_series("S1")]})
    assert bundle.find("S1", "rest", "ecg") is bundle.find("S1", "rest", "ECG") is not None
    # a second series that differs only in the case of its modality could
    # not be found
    with pytest.raises(ValueError, match="duplicate"):
        SubjectBundle({"S1": [_series("S1"), _series("S1", modality="ecg")]})


def _matrix(columns, windows, values, subject="S1", phase="rest"):
    n = len(windows)
    return FeatureMatrix(columns, [subject] * n, [phase] * n, windows, values)


def test_matrix_rejects_duplicate_row_keys():
    with pytest.raises(ValueError, match="duplicate row key"):
        _matrix(("f",), [0, 0], [[1.0], [2.0]])


def test_matrix_rejects_mixed_column():
    # text tags are one-hot encoded at extraction; a matrix holds floats
    with pytest.raises(ValueError):
        _matrix(("f",), [0, 1], [[1.0], ["a"]])


def test_matrix_rejects_width_mismatch():
    with pytest.raises(ValueError):
        _matrix(("a", "b"), [0], [[1.0]])


def test_matrix_rejects_bad_keys():
    with pytest.raises(ValueError, match="differ in length"):
        FeatureMatrix(("f",), ["S1", "S1"], ["rest"], [0, 1], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="nonnegative"):
        _matrix(("f",), [-1], [[1.0]])
    with pytest.raises(ValueError, match="duplicate column"):
        _matrix(("f", "f"), [0], [[1.0, 2.0]])


def test_matrix_arrays_are_read_only_and_to_array_copies():
    source = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = _matrix(("a", "b"), [0, 1], source)
    source[0, 0] = 9.0  # the matrix holds its own copy
    for arr in (m.subject_ids, m.phases, m.window_indices, m.values):
        assert not arr.flags.writeable
    out = m.to_array()
    out[0, 0] = -1.0
    assert m.values[0, 0] == 1.0
    assert out.flags.c_contiguous and out.dtype == np.float64


def test_matrix_subsets_index_the_stored_arrays():
    m = FeatureMatrix(("a", "b", "c"), ["S1", "S1", "S2"], ["rest", "stress", "rest"],
                      [0, 0, 0], np.arange(9.0).reshape(3, 3))
    rows = m.subset_rows([2, 0])
    assert rows.subject_ids.tolist() == ["S2", "S1"]
    assert rows.phases.tolist() == ["rest", "rest"]
    np.testing.assert_array_equal(rows.values, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])
    cols = m.subset_columns(["c", "a"])
    assert cols.columns == ("c", "a")
    np.testing.assert_array_equal(cols.values, [[2.0, 0.0], [5.0, 3.0], [8.0, 6.0]])
    assert cols.subject_ids.tolist() == m.subject_ids.tolist()
    assert len(m.subset_rows([])) == 0


def test_matrix_drop_incomplete_rows():
    nan = float("nan")
    values = [[nan, 2.0], [1.0, 2.0], [1.0, nan], [3.0, 4.0]]
    m, dropped = _matrix(("a", "b"), [0, 1, 2, 3], values).drop_incomplete_rows()
    assert m.window_indices.tolist() == [1, 3]
    np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])
    assert dropped == [("S1", "rest", 0), ("S1", "rest", 2)]
    assert [tuple(map(type, key)) for key in dropped] == [(str, str, int)] * 2


def test_label_vector_requires_class_names():
    with pytest.raises(ValueError):
        LabelVector((0, 1), {0: "rest"})


def test_label_vector_checks_row_count():
    m = _matrix(("a",), [0], [[1.0]])
    lv = LabelVector((0, 1), {0: "rest", 1: "stress"})
    with pytest.raises(ValueError):
        lv.check_against(m)


def test_label_vector_is_read_only_int64_array():
    given_labels = np.array([2, 0, 1, 0])
    lv = LabelVector(given_labels, {0: "a", 1: "b", 2: "c"})
    assert lv.labels.dtype == np.int64 and not lv.labels.flags.writeable
    assert given_labels.flags.writeable  # the caller's array is copied
    assert LabelVector(lv.labels[[3, 0]], lv.class_names).labels.tolist() == [0, 2]
    copy = lv.to_array()
    copy[0] = 1
    assert lv.labels.tolist() == [2, 0, 1, 0]
    with pytest.raises(ValueError):
        LabelVector([[0, 1]], {0: "a", 1: "b"})


def _checked_is_uniform(series):
    """The grid check of TimeSeries.is_uniform, made afresh each call."""
    deltas = np.diff(series.timestamps)
    expected = 1.0 / series.sample_rate_hz
    return bool(np.all(np.abs(deltas - expected) <= 1e-9 * expected))


def _jittered(n=400, fs=100.0, at=(250,)):
    """A 100 Hz series whose grid is exact apart from one late sample at
    each index of ``at``."""
    t = np.arange(n) / fs
    t[list(at)] += 0.2 / fs
    return TimeSeries("S1", "rest", Modality("ECG"), t, np.sin(t), fs)


def test_window_of_a_non_uniform_series_is_checked_again():
    series = _jittered()
    assert not series.is_uniform()
    clean, holed = series.window(0, 200), series.window(200, 400)
    assert clean.is_uniform() and not holed.is_uniform()
    # a fresh series, with no answer kept, cuts the same windows
    assert [w.is_uniform() for w in (_jittered().window(0, 200), _jittered().window(200, 400))] \
        == [True, False]


def test_with_values_and_windows_keep_the_grid_check(monkeypatch):
    uniform = TimeSeries("S1", "rest", Modality("ECG"), np.arange(50) / 10.0,
                         np.zeros(50), 10.0)
    holed = _jittered()
    assert uniform.is_uniform() and not holed.is_uniform()
    diffs = []
    diff = np.diff
    monkeypatch.setattr(np, "diff", lambda *a, **k: diffs.append(1) or diff(*a, **k))
    assert uniform.with_values(np.ones(50)).is_uniform()
    assert uniform.window(10, 40).window(5, 20).is_uniform()
    assert not holed.with_values(np.ones(400)).is_uniform()
    assert not diffs  # every answer was kept from the first check
    assert not holed.window(240, 260).is_uniform()
    assert len(diffs) == 1  # a window of a non-uniform grid is checked again


@given(st.lists(st.sampled_from([0.0, 1e-12, 1e-3, -1e-3]), min_size=2, max_size=40),
       st.integers(0, 38), st.integers(2, 40))
def test_kept_grid_checks_equal_a_fresh_check(jitter, start, length):
    fs = 8.0
    t = np.arange(len(jitter)) / fs + np.cumsum(jitter)
    series = TimeSeries("S1", "rest", Modality("ECG"), t, np.zeros(t.size), fs)
    stop = min(start + length, len(series))
    start = min(start, stop - 2)
    for first in (series, series.with_values(np.ones(t.size))):
        first.is_uniform()
        for s in (first, first.with_values(np.ones(t.size)), first.window(start, stop),
                  first.window(start, stop).with_values(np.ones(stop - start))):
            assert s.is_uniform() == _checked_is_uniform(s)
