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
    result = validate_time_series(Candidate([0.0, 0.004, 0.008], [1, 2, 3], 250))
    assert result.ok


def test_non_increasing_timestamp_reported_with_index():
    result = validate_time_series(Candidate([0.0, 0.0, 0.004], [1, 2, 3], 250))
    assert not result.ok
    v = next(v for v in result.violations if "non-increasing" in v.message)
    assert v.index == 1


def test_length_mismatch_reported():
    result = validate_time_series(Candidate([0.0, 0.004, 0.008], [1, 2], 250))
    assert any("length mismatch" in v.message for v in result.violations)


def test_invalid_series_cannot_be_constructed():
    with pytest.raises(ValidationFailed):
        TimeSeries("S1", "rest", Modality("ECG"), [0.0, 0.0], [1, 2], 250)


def test_series_arrays_are_immutable():
    s = TimeSeries("S1", "rest", Modality("ECG"), [0.0, 0.004], [1.0, 2.0], 250)
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def _series(subject, phase="rest", modality="ECG"):
    return TimeSeries(subject, phase, Modality(modality),
                      [0.0, 1.0, 2.0], [0.0, 1.0, 0.0], 1.0)


def test_bundle_rejects_wrong_subject_filing():
    with pytest.raises(ValueError):
        SubjectBundle({"S1": [_series("S2")]})


def test_bundle_rejects_duplicate_phase_modality():
    with pytest.raises(ValueError):
        SubjectBundle({"S1": [_series("S1"), _series("S1")]})


@given(st.integers(1, 5), st.integers(1, 5))
def test_disjoint_bundle_merge_counts_add(n_a, n_b):
    a = SubjectBundle({f"A{i}": [_series(f"A{i}")] for i in range(n_a)})
    b = SubjectBundle({f"B{i}": [_series(f"B{i}")] for i in range(n_b)})
    assert len(a.merge(b)) == n_a + n_b


def test_bundle_merge_rejects_overlap():
    a = SubjectBundle({"S1": [_series("S1")]})
    with pytest.raises(ValueError):
        a.merge(a)


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
    m, dropped = _matrix(("a", "b"), [0, 1], [[1.0, 2.0], [float("nan"), 2.0]]
                         ).drop_incomplete_rows()
    assert len(m) == 1
    assert dropped == [("S1", "rest", 1)]
    assert [tuple(map(type, key)) for key in dropped] == [(str, str, int)]


def test_matrix_drop_incomplete_rows_with_kept_indices():
    nan = float("nan")
    values = [[nan, 2.0], [1.0, 2.0], [1.0, nan], [3.0, 4.0]]
    m, dropped, kept = _matrix(("a", "b"), [0, 1, 2, 3], values).drop_incomplete_rows(
        with_kept=True)
    assert kept == [1, 3]
    assert m.window_indices.tolist() == [1, 3]
    np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])
    assert dropped == [("S1", "rest", 0), ("S1", "rest", 2)]


def test_label_vector_requires_class_names():
    with pytest.raises(ValueError):
        LabelVector((0, 1), {0: "rest"})


def test_label_vector_checks_row_count():
    m = _matrix(("a",), [0], [[1.0]])
    lv = LabelVector((0, 1), {0: "rest", 1: "stress"})
    with pytest.raises(ValueError):
        lv.check_against(m)
