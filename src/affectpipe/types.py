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


def canonical_name(name: Modality | str) -> str:
    """The form a modality or questionnaire name is stored and matched in:
    upper case, so ``ecg``, ``Ecg`` and ``ECG`` name one modality.  A
    Modality gives its stored name; anything else its ``str()`` form."""
    return name.name if isinstance(name, Modality) else str(name).upper()


@dataclass(frozen=True)
class Modality:
    """Descriptor for one signal type (ECG, EDA, ...); ``name`` is kept in
    its :func:`canonical_name` form.

    The registry of known modalities is loaded from a metadata file, so the
    set is extensible; see :mod:`affectpipe.acquisition`.
    """

    name: str
    unit: str = ""
    default_sample_rate_hz: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "name", canonical_name(self.name))
        rate = self.default_sample_rate_hz
        if rate is not None and not 0 < rate < np.inf:  # NaN fails both
            raise ValueError(f"default_sample_rate_hz must be finite and positive, not {rate}")


def _frozen_array(values, dtype=float):
    arr = np.array(values, dtype=dtype)  # a copy: the caller's array stays writable
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
        violations = validate_time_series(self)
        if violations:
            raise ValidationFailed(violations)

    def __len__(self):
        return self.values.size

    @property
    def duration_s(self) -> float:
        # sample count over rate, so abutting windows tile exactly
        return len(self) / self.sample_rate_hz

    def is_uniform(self) -> bool:
        """Whether every timestamp delta is within :data:`UNIFORM_RTOL` of
        ``1 / sample_rate_hz``.

        The grid is checked once and the answer kept: :meth:`with_values`
        keeps the grid and so the answer, and :meth:`window` keeps a True
        (its deltas are some of this series' deltas, against the same rate)
        but checks a window of a non-uniform grid again.  Each answer is
        the same comparison over the same deltas, so it is unchanged.
        """
        uniform = vars(self).get("_uniform")
        if uniform is None:
            deltas = np.diff(self.timestamps)
            expected = 1.0 / self.sample_rate_hz
            uniform = bool(np.all(np.abs(deltas - expected) <= UNIFORM_RTOL * expected))
            object.__setattr__(self, "_uniform", uniform)
        return uniform

    def with_values(self, values) -> "TimeSeries":
        """Same grid and identity, new sample values (filtering result).

        The grid is this series' own, already validated, so like
        :meth:`window` this does not validate again; it only checks that
        there is one value per timestamp.
        """
        values = _frozen_array(values)
        if values.shape != self.timestamps.shape:
            raise ValidationFailed([Violation("timestamps/values length mismatch")])
        series = object.__new__(TimeSeries)
        vars(series).update(vars(self), values=values)
        return series

    def window(self, start: int, stop: int) -> "TimeSeries":
        """Samples ``start:stop``, 2 or more, as a series of their own.

        A contiguous run of 2 or more samples of a valid series is valid, so
        unlike the constructor this does not validate again; the arrays are
        read-only views.
        """
        if not 0 <= start <= stop - 2 <= len(self) - 2:
            raise ValueError(f"window {start}:{stop} of a {len(self)}-sample "
                             "series must hold 2 or more of its samples")
        window = object.__new__(TimeSeries)
        vars(window).update(vars(self), timestamps=self.timestamps[start:stop],
                            values=self.values[start:stop])
        if vars(self).get("_uniform") is not True:
            vars(window).pop("_uniform", None)  # part of a non-uniform grid
        return window


def row_medians(X) -> np.ndarray:
    """``np.median(X, axis=1)`` from one single-index partition.

    np.median partitions at both middle indices and at the last one (its
    NaN check), and more than one index turns off numpy's vectorised
    selection.  Partitioning at ``h = n // 2`` alone leaves the h-th order
    statistic at ``h`` and the smaller ones before it, so an even row's
    median is ``(max(P[:h]) + P[h]) / 2``, the add-then-halve of np.median's
    mean.  A row holding NaN (then ``max(P[h:])`` is NaN) takes np.median's
    own result, so its NaN payload is unchanged.  Only when the middle
    values are zeros of both signs may the zero's sign differ from
    np.median's, as each follows its own partition order.
    """
    n = X.shape[1]
    h = n // 2
    P = np.partition(X, h, axis=1)
    mid = P[:, h]
    out = mid.copy() if n % 2 else (P[:, :h].max(axis=1) + mid) / 2
    nan = np.flatnonzero(np.isnan(P[:, h:].max(axis=1)))
    if nan.size:
        out[nan] = np.median(X[nan], axis=1)
    return out


def validate_time_series(series) -> tuple[Violation, ...]:
    """Check every TimeSeries invariant; violations are data, not faults.

    Returns the violations found, none when the series is valid.  Accepts
    either a TimeSeries or anything with the same attributes, so it can vet
    candidate data before construction.
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
    return tuple(violations)


@dataclass(frozen=True)
class SubjectBundle:
    """Mapping subject_id -> list of TimeSeries across phases/modalities."""

    entries: dict[str, tuple[TimeSeries, ...]]

    def __post_init__(self):
        frozen, index = {}, {}  # index: (subject, phase, modality name) -> series
        for subject, series_list in self.entries.items():
            frozen[subject] = tuple(series_list)
            for s in frozen[subject]:
                if s.subject_id != subject:
                    raise ValueError(
                        f"series subject {s.subject_id!r} filed under {subject!r}"
                    )
                key = (subject, s.phase, s.modality.name)
                if key in index:
                    raise ValueError(f"duplicate (phase, modality) {key[1:]} for {subject!r}")
                index[key] = s
        object.__setattr__(self, "entries", frozen)
        object.__setattr__(self, "_index", index)

    def subjects(self) -> list[str]:
        return sorted(self.entries)

    def series_for(self, subject: str) -> tuple[TimeSeries, ...]:
        return self.entries[subject]

    def find(self, subject: str, phase: str, modality_name: str) -> TimeSeries | None:
        """The series of (subject, phase) whose modality is ``modality_name``,
        whatever its case."""
        return self._index.get((subject, phase, canonical_name(modality_name)))

    def phases_for(self, subject: str) -> list[str]:
        return sorted({s.phase for s in self.entries.get(subject, ())})

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

    def to_array(self) -> np.ndarray:
        """Writable copy of ``values``."""
        return np.array(self.values)

    def subset_columns(self, names) -> "FeatureMatrix":
        idx = [self.columns.index(n) for n in names]
        return FeatureMatrix(tuple(names), self.subject_ids, self.phases,
                             self.window_indices, self.values[:, idx])

    def subset_rows(self, indices) -> "FeatureMatrix":
        idx = np.asarray(indices, dtype=np.intp)
        return FeatureMatrix(self.columns, self.subject_ids[idx], self.phases[idx],
                             self.window_indices[idx], self.values[idx])

    def drop_incomplete_rows(self):
        """Drop rows containing absent cells; returns (matrix, dropped keys)."""
        incomplete = np.isnan(self.values).any(axis=1)
        return self.subset_rows(np.flatnonzero(~incomplete)), self._keys(incomplete)


@dataclass(frozen=True)
class LabelVector:
    """Integer class ids aligned one-to-one with FeatureMatrix rows, held as
    one read-only int64 array."""

    labels: np.ndarray
    class_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", dict(self.class_names))
        missing = sorted(set(np.unique(labels).tolist()) - set(self.class_names))
        if missing:
            raise ValueError(f"labels without class names: {missing}")

    def __len__(self):
        return self.labels.size

    def to_array(self) -> np.ndarray:
        """Writable copy of ``labels``."""
        return np.array(self.labels)

    def check_against(self, matrix: FeatureMatrix):
        if len(self) != len(matrix):
            raise ValueError(
                f"label count {len(self)} does not match row count {len(matrix)}"
            )
