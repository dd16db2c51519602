import numpy as np
import pytest
from hypothesis import given, strategies as st

from affectpipe import (
    FeatureMatrix,
    FeatureRow,
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


def test_matrix_rejects_duplicate_row_keys():
    rows = [FeatureRow("S1", "rest", 0, (1.0,)), FeatureRow("S1", "rest", 0, (2.0,))]
    with pytest.raises(ValueError):
        FeatureMatrix(("f",), rows)


def test_matrix_rejects_mixed_column():
    rows = [FeatureRow("S1", "rest", 0, (1.0,)), FeatureRow("S1", "rest", 1, ("a",))]
    with pytest.raises(ValueError):
        FeatureMatrix(("f",), rows)


def test_matrix_rejects_width_mismatch():
    with pytest.raises(ValueError):
        FeatureMatrix(("a", "b"), [FeatureRow("S1", "rest", 0, (1.0,))])


def test_matrix_drop_incomplete_rows():
    rows = [FeatureRow("S1", "rest", 0, (1.0, 2.0)),
            FeatureRow("S1", "rest", 1, (float("nan"), 2.0))]
    m, dropped = FeatureMatrix(("a", "b"), rows).drop_incomplete_rows()
    assert len(m) == 1
    assert dropped == [("S1", "rest", 1)]


def test_matrix_drop_incomplete_rows_with_kept_indices():
    rows = [FeatureRow("S1", "rest", 0, (float("nan"), 2.0)),
            FeatureRow("S1", "rest", 1, (1.0, 2.0)),
            FeatureRow("S1", "rest", 2, (1.0, float("nan"))),
            FeatureRow("S1", "rest", 3, (3.0, 4.0))]
    m, dropped, kept = FeatureMatrix(("a", "b"), rows).drop_incomplete_rows(
        with_kept=True)
    assert kept == [1, 3]
    assert m.rows == (rows[1], rows[3])
    assert dropped == [("S1", "rest", 0), ("S1", "rest", 2)]


def test_label_vector_requires_class_names():
    with pytest.raises(ValueError):
        LabelVector((0, 1), {0: "rest"})


def test_label_vector_checks_row_count():
    m = FeatureMatrix(("a",), [FeatureRow("S1", "rest", 0, (1.0,))])
    lv = LabelVector((0, 1), {0: "rest", 1: "stress"})
    with pytest.raises(ValueError):
        lv.check_against(m)
