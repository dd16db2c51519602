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


#: Value stored in a FeatureMatrix cell when a window failed extraction.
ABSENT = float("nan")


@dataclass(frozen=True)
class FeatureMatrix:
    """Named float feature columns over (subject, phase, window) rows.

    Row ``i`` is keyed by ``(subject_ids[i], phases[i], window_indices[i])``
    and holds ``values[i]``, a row of the read-only ``(rows, columns)``
    float64 array.  Absent cells (failed windows) are :data:`ABSENT` (NaN).
    """

    columns: tuple[str, ...]
    subject_ids: np.ndarray
    phases: np.ndarray
    window_indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        columns = tuple(self.columns)
        object.__setattr__(self, "columns", columns)
        for name, dtype in (("subject_ids", str), ("phases", str),
                            ("window_indices", np.int64), ("values", float)):
            arr = np.array(getattr(self, name), dtype=dtype, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column names")
        n = len(self.subject_ids)
        if len(self.phases) != n or len(self.window_indices) != n:
            raise ValueError("key arrays differ in length")
        if self.values.shape != (n, len(columns)):
            raise ValueError(f"values shape {self.values.shape} does not match "
                             f"{n} rows x {len(columns)} columns")
        if np.any(self.window_indices < 0):
            raise ValueError("window_index must be nonnegative")
        keys = set()
        for key in self._keys(slice(None)):
            if key in keys:
                raise ValueError(f"duplicate row key {key}")
            keys.add(key)

    def __len__(self):
        return len(self.subject_ids)

    def _keys(self, rows) -> list[tuple[str, str, int]]:
        return list(zip(self.subject_ids[rows].tolist(), self.phases[rows].tolist(),
                        self.window_indices[rows].tolist()))

    def column_index(self, name: str) -> int:
        return self.columns.index(name)

    def to_array(self) -> np.ndarray:
        """Writable copy of ``values``."""
        return np.array(self.values)

    def subset_columns(self, names) -> "FeatureMatrix":
        idx = [self.column_index(n) for n in names]
        return FeatureMatrix(tuple(names), self.subject_ids, self.phases,
                             self.window_indices, self.values[:, idx])

    def subset_rows(self, indices) -> "FeatureMatrix":
        idx = np.asarray(indices, dtype=np.intp)
        return FeatureMatrix(self.columns, self.subject_ids[idx], self.phases[idx],
                             self.window_indices[idx], self.values[idx])

    def drop_incomplete_rows(self, with_kept: bool = False):
        """Drop rows containing absent cells.

        Returns (matrix, dropped keys), or with ``with_kept`` (matrix,
        dropped keys, kept row indices) so aligned labels can follow.
        """
        incomplete = np.isnan(self.values).any(axis=1)
        kept = np.flatnonzero(~incomplete).tolist()
        matrix = self.subset_rows(kept)
        dropped = self._keys(incomplete)
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
