"""Label generation from phases or questionnaire self-reports, plus the
optional sequential forward feature selection."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientReports,
    KTooLarge,
    MissingReport,
    UnmappedPhase,
    WrongQuestionnaire,
)
from .types import FeatureMatrix, LabelVector

SUDS_THRESHOLD = 50.0


@dataclass(frozen=True)
class SelfReport:
    subject_id: str
    phase: str
    questionnaire: str  # SUDS | STAI | other
    score: float

    def __post_init__(self):
        if self.questionnaire.upper() == "SUDS" and not 0 <= self.score <= 100:
            raise ValueError(f"SUDS score {self.score} outside [0, 100]")


@dataclass(frozen=True)
class LabelRule:
    kind: str  # phase-map | fixed-threshold | dynamic-threshold | custom
    parameters: dict = field(default_factory=dict)


def load_reports(path, subject_id: str) -> list[SelfReport]:
    """Read a per-subject ``phase,questionnaire,score`` CSV."""
    reports = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            reports.append(SelfReport(
                subject_id=subject_id,
                phase=row["phase"].strip(),
                questionnaire=row["questionnaire"].strip(),
                score=float(row["score"]),
            ))
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
    return LabelVector(tuple(labels), names)


def suds_fixed_threshold(reports: list[SelfReport]) -> dict[tuple[str, str], int]:
    """Binary stress labels from SUDS: score >= 50 -> 1, else 0."""
    out = {}
    for r in reports:
        if r.questionnaire.upper() != "SUDS":
            raise WrongQuestionnaire(f"expected SUDS, got {r.questionnaire!r}")
        out[(r.subject_id, r.phase)] = 1 if r.score >= SUDS_THRESHOLD else 0
    return out


def stai_dynamic_threshold(reports: list[SelfReport]) -> dict[tuple[str, str], int]:
    """Per-subject threshold at the mean score; score >= mean -> 1, else 0."""
    by_subject: dict[str, list[SelfReport]] = {}
    for r in reports:
        if r.questionnaire.upper() != "STAI":
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


def attach_labels(matrix: FeatureMatrix, rule: LabelRule,
                  reports: list[SelfReport] | None = None,
                  strict: bool = False):
    """Produce one label per row; rows without a resolvable label are dropped.

    A ``custom`` rule's ``fn(matrix)`` returns one class id per row.
    Returns (matrix, labels, dropped_row_keys).
    """
    if rule.kind == "phase-map":
        labels = generate_phase_labels(matrix, rule.parameters["phase_to_class"])
        return matrix, labels, []

    if rule.kind == "custom":
        fn = rule.parameters["fn"]
        labels = [int(c) for c in fn(matrix)]
        names = rule.parameters.get("class_names") or {c: str(c) for c in set(labels)}
        vector = LabelVector(tuple(labels), names)
        vector.check_against(matrix)
        return matrix, vector, []

    if rule.kind in ("fixed-threshold", "dynamic-threshold"):
        if reports is None:
            raise MissingReport("threshold rules need self-reports")
        table = (suds_fixed_threshold(reports) if rule.kind == "fixed-threshold"
                 else stai_dynamic_threshold(reports))
        kept, labels, dropped = [], [], []
        keys = zip(matrix.subject_ids.tolist(), matrix.phases.tolist(),
                   matrix.window_indices.tolist())
        for i, (subject, phase, window) in enumerate(keys):
            if (subject, phase) in table:
                kept.append(i)
                labels.append(table[(subject, phase)])
            else:
                dropped.append((subject, phase, window))
        if dropped and strict:
            raise MissingReport(f"rows without self-reports: {dropped}")
        return (matrix.subset_rows(kept),
                LabelVector(tuple(labels), dict(_BINARY_NAMES)),
                dropped)

    raise ValueError(f"unknown label rule kind {rule.kind!r}")


# ---------------------------------------------------------------------------
# Feature selection
# ---------------------------------------------------------------------------

def _stratified_folds(y: np.ndarray, n_folds: int, seed: int):
    """Round-robin deal per class after a seeded shuffle."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    counter = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for i in idx:
            folds[counter % n_folds].append(int(i))
            counter += 1
    out = []
    all_idx = set(range(y.size))
    for test in folds:
        train = sorted(all_idx - set(test))
        out.append((np.asarray(train), np.asarray(sorted(test))))
    return out


def sequential_forward_selection(matrix: FeatureMatrix, labels: LabelVector,
                                 scorer, k: int, cv_folds: int = 5,
                                 seed: int = 0) -> FeatureMatrix:
    """Greedy wrapper selection of ``k`` columns.

    At each step the candidate column maximizing mean stratified-CV
    accuracy of ``scorer`` on selected + candidate is added; ties break on
    the lower column index.  ``scorer`` is a ClassifierSpec (see
    :mod:`affectpipe.classification`) or anything with fit/predict.
    """
    # local, avoids cycle
    from .classification import ClassifierSpec, fit as fit_model, predict

    labels.check_against(matrix)
    if not isinstance(scorer, ClassifierSpec):
        scorer = ClassifierSpec(type(scorer).__name__, "custom", {"handle": scorer})
    n_cols = len(matrix.columns)
    if k >= n_cols:
        raise KTooLarge(f"k={k} must be below column count {n_cols}")
    X = matrix.to_array()
    y = labels.to_array()
    folds = _stratified_folds(y, min(cv_folds, y.size), seed)

    def cv_accuracy(col_indices):
        accs = []
        for train, test in folds:
            if train.size == 0 or test.size == 0:
                continue
            model = fit_model(scorer, X[np.ix_(train, col_indices)], y[train])
            pred, _ = predict(model, X[np.ix_(test, col_indices)])
            accs.append(float(np.mean(pred == y[test])))
        return float(np.mean(accs)) if accs else 0.0

    selected: list[int] = []
    remaining = list(range(n_cols))
    for _ in range(k):
        best_j, best_score = None, -1.0
        for j in remaining:
            score = cv_accuracy(selected + [j])
            if score > best_score:
                best_j, best_score = j, score
        selected.append(best_j)
        remaining.remove(best_j)
    return matrix.subset_columns([matrix.columns[j] for j in selected])
