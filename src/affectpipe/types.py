"""Core payload types exchanged between pipeline components.

All values are immutable after construction so they can be shared freely
between threads and between pipeline stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationFailed

#: Relative tolerance for the uniform-sampling check after resampling.
UNIFORM_RTOL = 1e-9


@dataclass(frozen=True)
class Modality:
    """Descriptor for one signal type (ECG, EDA, ...).

    The registry of known modalities is loaded from a metadata file, so the
    set is extensible; see :mod:`affectpipe.acquisition`.
    """

    name: str
    unit: str = ""
    default_sample_rate_hz: float | None = None

    def __post_init__(self):
        if self.default_sample_rate_hz is not None and self.default_sample_rate_hz <= 0:
            raise ValueError("default_sample_rate_hz must be positive")


def _frozen_array(values, dtype=float):
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Violation:
    message: str
    index: int | None = None

    def __str__(self):
        if self.index is None:
            return self.message
        return f"{self.message} (index {self.index})"


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class TimeSeries:
    """One modality's samples for one subject-phase.

    Timestamps are seconds relative to recording start.  ``sample_rate_hz``
    is nominal: for irregularly sampled input it is the reciprocal of the
    median timestamp delta, and downstream DSP requires an explicit resample
    first.
    """

    subject_id: str
    phase: str
    modality: Modality
    timestamps: np.ndarray
    values: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _frozen_array(self.timestamps))
        object.__setattr__(self, "values", _frozen_array(self.values))
        result = validate_time_series(self)
        if not result.ok:
            raise ValidationFailed(result.violations)

    def __len__(self):
        return self.values.size

    @property
    def duration_s(self) -> float:
        # sample count over rate, so abutting windows tile exactly
        return len(self) / self.sample_rate_hz

    def is_uniform(self) -> bool:
        deltas = np.diff(self.timestamps)
        expected = 1.0 / self.sample_rate_hz
        return bool(np.all(np.abs(deltas - expected) <= UNIFORM_RTOL * expected))

    def with_values(self, values) -> "TimeSeries":
        """Same grid and identity, new sample values (filtering result)."""
        return TimeSeries(
            subject_id=self.subject_id,
            phase=self.phase,
            modality=self.modality,
            timestamps=self.timestamps,
            values=values,
            sample_rate_hz=self.sample_rate_hz,
        )


def validate_time_series(series) -> ValidationResult:
    """Check every TimeSeries invariant; violations are data, not faults.

    Accepts either a TimeSeries or anything with the same attributes, so it
    can vet candidate data before construction.
    """
    violations = []
    ts = np.asarray(series.timestamps, dtype=float)
    vals = np.asarray(series.values, dtype=float)
    if ts.size != vals.size:
        violations.append(Violation("timestamps/values length mismatch"))
    if ts.size < 2:
        violations.append(Violation("fewer than 2 samples"))
    if series.sample_rate_hz is None or not series.sample_rate_hz > 0:
        violations.append(Violation("sample_rate_hz must be positive"))
    if ts.size >= 2:
        deltas = np.diff(ts)
        bad = np.flatnonzero(deltas <= 0)
        if bad.size:
            violations.append(Violation("non-increasing timestamp", int(bad[0]) + 1))
    if not np.all(np.isfinite(ts)):
        violations.append(Violation("non-finite timestamp", int(np.flatnonzero(~np.isfinite(ts))[0])))
    return ValidationResult(tuple(violations))


@dataclass(frozen=True)
class SubjectBundle:
    """Mapping subject_id -> list of TimeSeries across phases/modalities."""

    entries: dict[str, tuple[TimeSeries, ...]]

    def __post_init__(self):
        frozen = {}
        for subject, series_list in self.entries.items():
            seen = set()
            series_list = tuple(series_list)
            for s in series_list:
                if s.subject_id != subject:
                    raise ValueError(
                        f"series subject {s.subject_id!r} filed under {subject!r}"
                    )
                key = (s.phase, s.modality.name)
                if key in seen:
                    raise ValueError(f"duplicate (phase, modality) {key} for {subject!r}")
                seen.add(key)
            frozen[subject] = series_list
        object.__setattr__(self, "entries", frozen)

    def subjects(self) -> list[str]:
        return sorted(self.entries)

    def series_for(self, subject: str) -> tuple[TimeSeries, ...]:
        return self.entries[subject]

    def find(self, subject: str, phase: str, modality_name: str) -> TimeSeries | None:
        for s in self.entries.get(subject, ()):
            if s.phase == phase and s.modality.name == modality_name:
                return s
        return None

    def phases_for(self, subject: str) -> list[str]:
        return sorted({s.phase for s in self.entries.get(subject, ())})

    def merge(self, other: "SubjectBundle") -> "SubjectBundle":
        overlap = set(self.entries) & set(other.entries)
        if overlap:
            raise ValueError(f"subjects present in both bundles: {sorted(overlap)}")
        merged = dict(self.entries)
        merged.update(other.entries)
        return SubjectBundle(merged)

    def __len__(self):
        return len(self.entries)


#: Sentinel stored in a FeatureRow when a window failed extraction.
ABSENT = float("nan")


def is_absent(value) -> bool:
    return isinstance(value, float) and value != value


@dataclass(frozen=True)
class FeatureRow:
    subject_id: str
    phase: str
    window_index: int
    values: tuple

    def __post_init__(self):
        if self.window_index < 0:
            raise ValueError("window_index must be nonnegative")
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class FeatureMatrix:
    """Named feature columns over (subject, phase, window) rows.

    Cells are floats or interned text tags; a column may not mix the two.
    """

    columns: tuple[str, ...]
    rows: tuple[FeatureRow, ...]

    def __post_init__(self):
        columns = tuple(self.columns)
        rows = tuple(self.rows)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column names")
        keys = set()
        kinds = [None] * len(columns)
        for row in rows:
            if len(row.values) != len(columns):
                raise ValueError("row width does not match column count")
            key = (row.subject_id, row.phase, row.window_index)
            if key in keys:
                raise ValueError(f"duplicate row key {key}")
            keys.add(key)
            for j, v in enumerate(row.values):
                if is_absent(v):
                    continue
                kind = "categorical" if isinstance(v, str) else "numeric"
                if kinds[j] is None:
                    kinds[j] = kind
                elif kinds[j] != kind:
                    raise ValueError(f"column {columns[j]!r} mixes numeric and categorical")

    def __len__(self):
        return len(self.rows)

    def column_index(self, name: str) -> int:
        return self.columns.index(name)

    def categorical_columns(self) -> list[str]:
        cats = []
        for j, name in enumerate(self.columns):
            if any(isinstance(r.values[j], str) for r in self.rows):
                cats.append(name)
        return cats

    def is_numeric(self) -> bool:
        return not self.categorical_columns()

    def to_array(self) -> np.ndarray:
        """Dense float array; raises if any column is categorical."""
        if not self.is_numeric():
            raise ValueError("matrix has categorical columns; one-hot encode first")
        return np.array([r.values for r in self.rows], dtype=float)

    def subject_ids(self) -> list[str]:
        return [r.subject_id for r in self.rows]

    def subset_columns(self, names) -> "FeatureMatrix":
        idx = [self.column_index(n) for n in names]
        rows = tuple(
            FeatureRow(r.subject_id, r.phase, r.window_index, tuple(r.values[j] for j in idx))
            for r in self.rows
        )
        return FeatureMatrix(tuple(names), rows)

    def subset_rows(self, indices) -> "FeatureMatrix":
        return FeatureMatrix(self.columns, tuple(self.rows[i] for i in indices))

    def drop_incomplete_rows(self, with_kept: bool = False):
        """Drop rows containing absent cells.

        Returns (matrix, dropped keys), or with ``with_kept`` (matrix,
        dropped keys, kept row indices) so aligned labels can follow.
        """
        kept, dropped = [], []
        for i, r in enumerate(self.rows):
            if any(is_absent(v) for v in r.values):
                dropped.append((r.subject_id, r.phase, r.window_index))
            else:
                kept.append(i)
        matrix = self.subset_rows(kept)
        return (matrix, dropped, kept) if with_kept else (matrix, dropped)


@dataclass(frozen=True)
class LabelVector:
    """Integer class ids aligned one-to-one with FeatureMatrix rows."""

    labels: tuple[int, ...]
    class_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", dict(self.class_names))
        missing = sorted(set(labels) - set(self.class_names))
        if missing:
            raise ValueError(f"labels without class names: {missing}")

    def __len__(self):
        return len(self.labels)

    def to_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=int)

    def check_against(self, matrix: FeatureMatrix):
        if len(self) != len(matrix):
            raise ValueError(
                f"label count {len(self)} does not match row count {len(matrix)}"
            )

    def subset(self, indices) -> "LabelVector":
        return LabelVector(tuple(self.labels[i] for i in indices), self.class_names)
