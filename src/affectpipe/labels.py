"""Label generation from phases or questionnaire self-reports, plus the
optional sequential forward feature selection."""

from __future__ import annotations

import csv
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checks import REQUIRED, at_least, check_value, checked, one_of
from .classification import ClassifierSpec, CVStrategy, forward_selection, make_folds
from .errors import (
    InsufficientReports,
    IOFailure,
    KTooLarge,
    MissingHeader,
    MissingReport,
    TooFewRows,
    UnmappedPhase,
    WrongQuestionnaire,
)
from .types import FeatureMatrix, LabelVector, canonical_name

SUDS_THRESHOLD = 50.0


@dataclass(frozen=True)
class SelfReport:
    subject_id: str
    phase: str
    questionnaire: str  # SUDS | STAI | other, kept in its canonical_name form
    score: float

    def __post_init__(self):
        object.__setattr__(self, "questionnaire", canonical_name(self.questionnaire))
        if self.questionnaire == "SUDS" and not 0 <= self.score <= 100:
            raise ValueError(f"SUDS score {self.score} outside [0, 100]")


@dataclass(frozen=True)
class LabelRule:
    """How rows get labels: ``kind`` is a key of :data:`LABEL_RULES` or
    ``custom``, whose ``parameters`` table the rule is checked against and
    filled from (ValueError names the key).  A custom rule takes ``fn``,
    where ``fn(matrix)`` gives one class id per row, and ``class_names``."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        check_value("kind", self.kind, one_of(*LABEL_RULES, "custom"))
        keys = _CUSTOM if self.kind == "custom" else LABEL_RULES[self.kind].parameters
        object.__setattr__(self, "parameters", checked(keys, self.parameters, self.kind))


#: The keys of a ``custom`` :class:`LabelRule`, each as (check, default).
_CUSTOM = {"fn": ((callable, "a callable"), REQUIRED),
           "class_names": ((lambda v: isinstance(v, Mapping), "a mapping"), None)}


def load_reports(path, subject_id: str) -> list[SelfReport]:
    """Read a per-subject ``phase,questionnaire,score`` CSV; a file that
    cannot be read or is not UTF-8 (IOFailure) or misses a column
    (MissingHeader) names the file, and a score that is not a number or a
    SUDS score outside [0, 100] (ValueError) the file and the line."""
    reports = []
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restval="")  # a short row's cells are empty
            for name in ("phase", "questionnaire", "score"):
                if name not in (reader.fieldnames or ()):
                    raise MissingHeader(name, path)
            for row in reader:
                where = f"{path} line {reader.line_num}"
                try:
                    score = float(row["score"])
                except ValueError:
                    raise ValueError(f"{where}: score {row['score']!r} is not a number") from None
                try:
                    reports.append(SelfReport(subject_id=subject_id, phase=row["phase"].strip(),
                                              questionnaire=row["questionnaire"].strip(),
                                              score=score))
                except ValueError as exc:  # a SUDS score outside [0, 100]
                    raise ValueError(f"{where}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    return reports


def generate_phase_labels(matrix: FeatureMatrix,
                          phase_to_class: dict[str, int]) -> LabelVector:
    """label[i] = phase_to_class[matrix.phases[i]]."""
    labels = []
    for phase in matrix.phases.tolist():
        if phase not in phase_to_class:
            raise UnmappedPhase(phase)
        labels.append(int(phase_to_class[phase]))
    # merged classes keep a combined name
    names = {}
    for phase, c in sorted(phase_to_class.items()):
        c = int(c)
        names[c] = phase if c not in names else f"{names[c]}|{phase}"
    return LabelVector(labels, names)


def suds_fixed_threshold(reports: list[SelfReport]) -> dict[tuple[str, str], int]:
    """Binary stress labels from SUDS: score >= 50 -> 1, else 0."""
    out = {}
    for r in reports:
        if r.questionnaire != "SUDS":
            raise WrongQuestionnaire(f"expected SUDS, got {r.questionnaire!r}")
        out[(r.subject_id, r.phase)] = 1 if r.score >= SUDS_THRESHOLD else 0
    return out


def stai_dynamic_threshold(reports: list[SelfReport]) -> dict[tuple[str, str], int]:
    """Per-subject threshold at the mean score; score >= mean -> 1, else 0."""
    by_subject: dict[str, list[SelfReport]] = {}
    for r in reports:
        if r.questionnaire != "STAI":
            raise WrongQuestionnaire(f"expected STAI, got {r.questionnaire!r}")
        by_subject.setdefault(r.subject_id, []).append(r)
    out = {}
    for subject, rs in by_subject.items():
        if len(rs) < 2:
            raise InsufficientReports(subject)
        theta = float(np.mean([r.score for r in rs]))
        for r in rs:
            out[(r.subject_id, r.phase)] = 1 if r.score >= theta else 0
    return out


_BINARY_NAMES = {0: "low", 1: "high"}


@dataclass(frozen=True)
class LabelKind:
    """A label rule kind: its parameters, each as (check, default), and for
    a threshold rule the questionnaire whose self-reports it reads and the
    ``threshold`` that maps them to a class per (subject, phase)."""

    parameters: dict
    questionnaire: str | None = None
    threshold: Callable | None = None


#: A class id, as ``phase_to_class`` maps each phase to one.
CLASS_ID = at_least(0)
#: Every label rule kind a run config may name.
LABEL_RULES = {
    "phase-map": LabelKind({"phase_to_class": ((
        lambda v: isinstance(v, Mapping) and all(map(CLASS_ID[0], v.values())),
        "a mapping of phase to class id (an integer of at least 0)"), REQUIRED)}),
    "fixed-threshold": LabelKind({}, "SUDS", suds_fixed_threshold),
    "dynamic-threshold": LabelKind({}, "STAI", stai_dynamic_threshold),
}


def attach_labels(matrix: FeatureMatrix, rule: LabelRule,
                  reports: list[SelfReport] | None = None,
                  strict: bool = False):
    """Produce one label per row; rows without a resolvable label are dropped.

    A threshold rule reads only the ``reports`` of its own questionnaire
    (SUDS for ``fixed-threshold``, STAI for ``dynamic-threshold``) and
    raises MissingReport when there are none.  A ``custom`` rule's
    ``fn(matrix)`` returns one class id per row.
    Returns (matrix, labels, dropped_row_keys).
    """
    if rule.kind == "phase-map":
        labels = generate_phase_labels(matrix, rule.parameters["phase_to_class"])
        return matrix, labels, []

    if rule.kind == "custom":
        fn = rule.parameters["fn"]
        labels = np.array(fn(matrix), dtype=np.int64)
        names = (rule.parameters.get("class_names")
                 or {c: str(c) for c in np.unique(labels).tolist()})
        vector = LabelVector(labels, names)
        vector.check_against(matrix)
        return matrix, vector, []

    # a threshold rule: LabelRule checks the kind
    questionnaire = LABEL_RULES[rule.kind].questionnaire
    reports = [r for r in reports or () if r.questionnaire == questionnaire]
    if not reports:
        raise MissingReport(f"{rule.kind} rule needs {questionnaire} self-reports")
    table = LABEL_RULES[rule.kind].threshold(reports)
    pairs = list(zip(matrix.subject_ids.tolist(), matrix.phases.tolist()))
    found = np.array([pair in table for pair in pairs], dtype=bool)
    dropped = matrix._keys(~found)
    if dropped and strict:
        raise MissingReport(f"rows without self-reports: {dropped}")
    return (matrix.subset_rows(np.flatnonzero(found)),
            LabelVector([table[pair] for pair in pairs if pair in table],
                        dict(_BINARY_NAMES)),
            dropped)


# ---------------------------------------------------------------------------
# Feature selection
# ---------------------------------------------------------------------------

def sequential_forward_selection(matrix: FeatureMatrix, labels: LabelVector,
                                 scorer, k: int, cv_folds: int = 5,
                                 seed: int = 0) -> FeatureMatrix:
    """Greedy wrapper selection of ``k`` columns.

    At each step the candidate column maximizing mean k-fold CV accuracy
    of ``scorer`` on selected + candidate is added; ties break on the lower
    column index.  The folds are the ``min(cv_folds, rows)`` k-fold folds
    :func:`make_folds` shuffles with ``seed``.  ``scorer`` is a
    ClassifierSpec (see :mod:`affectpipe.classification`) or anything with
    fit/predict.  Raises KTooLarge unless 1 <= k < column count, and
    TooFewRows for fewer than 2 folds.  The search itself is
    :func:`affectpipe.classification.forward_selection`.
    """
    labels.check_against(matrix)
    if not isinstance(scorer, ClassifierSpec):
        scorer = ClassifierSpec(type(scorer).__name__, "custom", {"handle": scorer})
    n_cols = len(matrix.columns)
    if not 1 <= k < n_cols:
        raise KTooLarge(f"k={k} must be at least 1 and below column count {n_cols}")
    y = labels.to_array()
    n_folds = min(cv_folds, y.size)
    if n_folds < 2:
        raise TooFewRows(f"cannot make {n_folds} folds from {y.size} rows")
    folds = make_folds(CVStrategy("kfold", n_folds), matrix, seed)
    selected, _ = forward_selection(scorer, matrix.to_array(), y, k, folds)
    return matrix.subset_columns([matrix.columns[j] for j in selected])

