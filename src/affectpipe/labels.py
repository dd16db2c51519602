"""Label generation from phases or questionnaire self-reports, plus the
optional sequential forward feature selection."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classification import (
    ClassifierSpec,
    CVStrategy,
    _as_array,
    _knn_block_rows,
    _knn_neighbors,
    _knn_vote,
    _squared_distances,
    _zscore_stats,
    fit,
    make_folds,
    predict,
)
from .errors import (
    InsufficientReports,
    KTooLarge,
    MissingReport,
    SingleClass,
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
    return LabelVector(labels, names)


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
        labels = np.array(fn(matrix), dtype=np.int64)
        names = (rule.parameters.get("class_names")
                 or {c: str(c) for c in np.unique(labels).tolist()})
        vector = LabelVector(labels, names)
        vector.check_against(matrix)
        return matrix, vector, []

    if rule.kind in ("fixed-threshold", "dynamic-threshold"):
        if reports is None:
            raise MissingReport("threshold rules need self-reports")
        table = (suds_fixed_threshold(reports) if rule.kind == "fixed-threshold"
                 else stai_dynamic_threshold(reports))
        pairs = list(zip(matrix.subject_ids.tolist(), matrix.phases.tolist()))
        found = np.array([pair in table for pair in pairs], dtype=bool)
        dropped = matrix._keys(~found)
        if dropped and strict:
            raise MissingReport(f"rows without self-reports: {dropped}")
        return (matrix.subset_rows(np.flatnonzero(found)),
                LabelVector([table[pair] for pair in pairs if pair in table],
                            dict(_BINARY_NAMES)),
                dropped)

    raise ValueError(f"unknown label rule kind {rule.kind!r}")


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
    fit/predict.  Raises KTooLarge unless 1 <= k < column count.
    """
    labels.check_against(matrix)
    if not isinstance(scorer, ClassifierSpec):
        scorer = ClassifierSpec(type(scorer).__name__, "custom", {"handle": scorer})
    n_cols = len(matrix.columns)
    if not 1 <= k < n_cols:
        raise KTooLarge(f"k={k} must be at least 1 and below column count {n_cols}")
    y = labels.to_array()
    folds = make_folds(CVStrategy("kfold", min(cv_folds, y.size)), matrix, seed)
    selected, _ = _forward_selection(scorer, matrix.to_array(), y, k, folds)
    return matrix.subset_columns([matrix.columns[j] for j in selected])


def _forward_selection(scorer, X, y, k, folds):
    """Column indices chosen greedily, plus one dict per step mapping each
    candidate column to its mean CV accuracy.

    A KNN scorer scores every step from per-fold cached columns (see
    :class:`_KnnFolds`); other scorers fit and predict every candidate on
    every fold.
    """
    def cv_accuracy(col_indices):
        accs = []
        for train, test in folds:
            model = fit(scorer, X[np.ix_(train, col_indices)], y[train])
            pred, _ = predict(model, X[np.ix_(test, col_indices)])
            accs.append(float(np.mean(pred == y[test])))
        return float(np.mean(accs))

    knn = _KnnFolds(scorer, X, y, folds) if scorer.algorithm == "KNN" else None
    selected: list[int] = []
    remaining = list(range(X.shape[1]))
    steps = []
    for _ in range(k):
        if knn is not None:
            scores = knn.step_scores(selected, remaining)
        else:
            scores = [cv_accuracy(selected + [j]) for j in remaining]
        steps.append(dict(zip(remaining, scores)))
        # argmax takes the first maximum: ties keep the lower column index
        best = remaining[int(np.argmax(scores))]
        selected.append(best)
        remaining.remove(best)
    return selected, steps


class _KnnFolds:
    """The CV folds of a KNN scorer, cached for scoring whole SFS steps.

    Per fold the train and test rows are z-scored once with the training
    statistics and stored column-major.  A column's statistics and squared
    differences do not depend on the columns beside it, so a step sums the
    selected columns' distances once, adds each candidate's column and feeds
    the square root to the same neighbour vote as :func:`predict`: every
    score equals a fit/predict on ``selected + [candidate]``.
    """

    def __init__(self, spec, X, y, folds):
        k = _knn_neighbors(spec)
        self.folds = []
        for train, test in folds:
            Xtr, Xte = _as_array(X[train]), _as_array(X[test])
            classes = np.unique(y[train])
            if classes.size < 2:
                raise SingleClass("training labels contain a single class")
            mu, sigma = _zscore_stats(Xtr)
            self.folds.append({
                "train": ((Xtr - mu) / sigma).T.copy(),
                "test": ((Xte - mu) / sigma).T.copy(),
                "y_train": y[train], "y_test": y[test], "classes": classes,
                "k": min(k, train.size),
            })

    def step_scores(self, selected, candidates) -> list[float]:
        """Mean CV accuracy of ``selected + [j]`` for each candidate ``j``.

        A fold's test rows are scored in blocks whose (rows, training rows)
        distances fit :data:`~affectpipe.classification.KNN_BLOCK_BYTES`, so
        every candidate reuses a block's summed selected columns while they
        are still in cache.  A fold's accuracy is its hits over its test rows.
        """
        accs = np.empty((len(candidates), len(self.folds)))
        for f, fold in enumerate(self.folds):
            train, test, y_test = fold["train"], fold["test"], fold["y_test"]
            hits = np.zeros(len(candidates), dtype=np.int64)
            block = _knn_block_rows(train.shape[1])
            for start in range(0, y_test.size, block):
                rows = slice(start, start + block)
                total = _squared_distances(train[selected], test[selected, rows])
                for i, j in enumerate(candidates):
                    d = _squared_distances(train[j:j + 1], test[j:j + 1, rows])
                    np.sqrt(np.add(total, d, out=d), out=d)
                    scores = _knn_vote(d, fold["y_train"], fold["classes"], fold["k"])
                    pred = fold["classes"][np.argmax(scores, axis=1)]
                    hits[i] += np.count_nonzero(pred == y_test[rows])
            accs[:, f] = hits / y_test.size
        return [float(np.mean(a)) for a in accs]
