"""Classifier training and prediction behind a uniform fit/predict
contract, cross-validation strategies, and metric computation.

Built-ins are implemented from first principles so tie-breaking and
seeding are fully specified: KNN (Euclidean; distance ties break on the
lower training-row index, vote ties on the smallest class id), a
CART-style decision tree with entropy criterion, LDA with a ridge-
regularized pooled covariance, softmax logistic regression trained by
batch gradient descent, and an equal-weight score-averaging ensemble.
Anything else plugs in through the custom handle contract (fit/predict,
optionally predict_proba).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AUCUndefined,
    LengthMismatch,
    NonNumericFeature,
    SchemaMismatch,
    SingleClass,
    TooFewRows,
    TooFewSubjects,
)
from .types import FeatureMatrix, LabelVector

LDA_RIDGE = 1e-6
LOGISTIC_ITERS = 500
LOGISTIC_STEP = 0.1
#: Byte cap on the (queries, training rows, features) difference block
#: that _knn_scores materialises at once.
KNN_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class ClassifierSpec:
    name: str
    algorithm: str  # KNN | DecisionTree | LDA | LogisticRegression | AveragingEnsemble | custom
    hyperparameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CVStrategy:
    kind: str  # kfold | loso
    folds: int = 5


@dataclass(frozen=True)
class FittedModel:
    """An estimator fitted on z-scored rows, plus the training mean ``mu``
    and standard deviation ``sigma`` that :func:`predict` z-scores with.

    ``columns`` names the training columns when the model was fitted on a
    :class:`FeatureMatrix`, and is ``None`` for a bare array.
    """

    spec: ClassifierSpec
    classes: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    state: dict
    columns: tuple[str, ...] | None = None


def _as_array(X) -> np.ndarray:
    X = X.to_array() if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise NonNumericFeature("feature matrix contains non-finite values")
    return X


def fit(spec: ClassifierSpec, X, y: LabelVector | np.ndarray) -> FittedModel:
    """Train one model on rows z-scored with their column mean and standard
    deviation (0 counts as 1); deterministic given identical inputs."""
    columns = X.columns if isinstance(X, FeatureMatrix) else None
    X = _as_array(X)
    y = y.to_array() if isinstance(y, LabelVector) else np.asarray(y, dtype=int)
    if X.shape[0] != y.size:
        raise LengthMismatch(f"{X.shape[0]} rows vs {y.size} labels")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClass("training labels contain a single class")
    mu, sigma = _zscore_stats(X)
    model = _fit_scaled(spec, classes, mu, sigma, (X - mu) / sigma, y)
    return model if columns is None else replace(model, columns=columns)


def _zscore_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and standard deviation of ``X``, a zero deviation counted
    as 1: the statistics :func:`fit` z-scores a model's rows with."""
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    return mu, np.where(sigma > 0, sigma, 1.0)


def _fit_scaled(spec, classes, mu, sigma, Z, y) -> FittedModel:
    """Fit ``spec`` on rows ``Z`` already z-scored with ``mu``/``sigma``."""
    hp = spec.hyperparameters
    algo = spec.algorithm
    if algo == "KNN":
        state = {"X": Z, "y": y.copy(), "k": _knn_neighbors(spec)}
    elif algo == "DecisionTree":
        tree = _grow_tree(Z, y, classes, depth=0,
                          max_depth=hp.get("max_depth"))
        state = {"tree": tree}
    elif algo == "LDA":
        state = _fit_lda(Z, y, classes)
    elif algo == "LogisticRegression":
        state = _fit_logistic(Z, y, classes,
                              iters=int(hp.get("iterations", LOGISTIC_ITERS)),
                              step=float(hp.get("step", LOGISTIC_STEP)))
    elif algo == "AveragingEnsemble":
        # members share the ensemble's scaler
        state = {"members": [_fit_scaled(m, classes, mu, sigma, Z, y)
                             for m in hp["members"]]}
    elif algo == "custom":
        handle = copy.deepcopy(hp["handle"])
        handle.fit(Z, y)
        state = {"handle": handle}
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return FittedModel(spec, classes, mu, sigma, state)


def predict(model: FittedModel, X) -> tuple[np.ndarray, np.ndarray | None]:
    """Labels plus per-class probability scores (columns follow
    ``model.classes``), or ``scores=None`` when the algorithm has none,
    for the rows of ``X`` z-scored with the model's training statistics.

    A :class:`FeatureMatrix` must carry the model's column names in the
    training order when the model recorded them."""
    if (isinstance(X, FeatureMatrix) and model.columns is not None
            and X.columns != model.columns):
        raise SchemaMismatch(
            f"model trained on columns {list(model.columns)}, got {list(X.columns)}"
        )
    X = _as_array(X)
    if X.shape[1] != model.mu.size:
        raise SchemaMismatch(
            f"model trained on {model.mu.size} columns, got {X.shape[1]}"
        )
    return _predict_scaled(model, (X - model.mu) / model.sigma)


def _predict_scaled(model: FittedModel, Z: np.ndarray):
    algo = model.spec.algorithm
    if algo == "KNN":
        scores = _knn_scores(model, Z)
    elif algo == "DecisionTree":
        scores = np.array([_tree_scores(model.state["tree"], row, model.classes)
                           for row in Z])
    elif algo == "LDA":
        scores = _lda_scores(model.state, Z)
    elif algo == "LogisticRegression":
        scores = _logistic_scores(model.state, Z)
    elif algo == "AveragingEnsemble":
        scores = np.mean([_predict_scaled(m, Z)[1] for m in model.state["members"]],
                         axis=0)
    elif algo == "custom":
        handle = model.state["handle"]
        labels = np.asarray(handle.predict(Z), dtype=int)
        scores = None
        if hasattr(handle, "predict_proba"):
            scores = np.asarray(handle.predict_proba(Z), dtype=float)
        return labels, scores
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    # argmax returns the first maximum, i.e. the smallest class id on ties
    labels = model.classes[np.argmax(scores, axis=1)]
    return labels, scores


# --- KNN ---

def _knn_neighbors(spec: ClassifierSpec) -> int:
    """The ``k_neighbors`` of a KNN spec (default 5), at least 1."""
    k = int(spec.hyperparameters.get("k_neighbors", 5))
    if k < 1:
        raise ValueError(f"k_neighbors must be at least 1, got {k}")
    return k


def _knn_scores(model: FittedModel, X: np.ndarray) -> np.ndarray:
    train, y, k = model.state["X"], model.state["y"], model.state["k"]
    k = min(k, train.shape[0])
    scores = np.empty((X.shape[0], model.classes.size))
    block = max(1, KNN_BLOCK_BYTES // (train.itemsize * max(train.size, 1)))
    for start in range(0, X.shape[0], block):
        q = X[start:start + block]
        d = np.sqrt(np.sum((train[None] - q[:, None]) ** 2, axis=-1))
        scores[start:start + block] = _knn_vote(d, y, model.classes, k)
    return scores


def _knn_vote(d: np.ndarray, y: np.ndarray, classes: np.ndarray,
             k: int) -> np.ndarray:
    """Per-class vote shares of the ``k`` nearest training rows, for each
    row of the (queries, training rows) distance matrix ``d``.

    The k nearest are every row closer than the k-th distance, then rows at
    exactly that distance in index order until k are chosen, so distance
    ties break on the lower training-row index.  ``k`` is at most the
    number of training rows.
    """
    if k == 1:
        # argmin returns the first minimum: the nearest row, lowest index
        # on ties; its class gets the whole vote
        return (y[np.argmin(d, axis=1), None] == classes[None, :]).astype(float)
    onehot = (y[:, None] == classes[None, :]).astype(float)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    chosen = d <= kth
    # only rows with more than k rows at or below the k-th distance need
    # the index order among the rows at exactly that distance
    tied = np.flatnonzero(chosen.sum(axis=1) > k)
    if tied.size:
        dt, kt = d[tied], kth[tied]
        closer = dt < kt
        at_kth = dt == kt
        room = k - closer.sum(axis=1, keepdims=True)
        chosen[tied] = closer | (at_kth & (np.cumsum(at_kth, axis=1) <= room))
    counts = (chosen @ onehot).astype(int)
    # entry c is 1/k added c times in sequence, as a per-neighbour vote loop
    # would sum it
    vote = np.concatenate(([0.0], np.cumsum(np.full(k, 1.0 / k))))
    return vote[counts]


# --- decision tree ---

def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Row-wise :func:`_entropy` of an integer count matrix, bit for bit.

    numpy sums fewer than 8 terms in sequence, so adding the classes one by
    one (a zero count adds +0.0) matches ``np.sum`` over the non-zero terms;
    the rare rows with 8 or more non-zero classes go through ``_entropy``.
    """
    present = counts > 0
    p = counts / counts.sum(axis=1, keepdims=True)
    terms = np.where(present, p * np.log2(np.where(present, p, 1.0)), 0.0)
    total = np.zeros(counts.shape[0])
    for c in range(counts.shape[1]):
        total += terms[:, c]
    out = -total
    for r in np.flatnonzero(present.sum(axis=1) >= 8):
        out[r] = _entropy(counts[r].astype(float))
    return out


def _grow_tree(X, y, classes, depth, max_depth):
    onehot = (y[:, None] == classes[None, :]).astype(int)
    totals = onehot.sum(axis=0)
    counts = totals.astype(float)
    node = {"counts": counts}
    if counts.max() == counts.sum() or (max_depth is not None and depth >= max_depth):
        return node
    parent_h = _entropy(counts)
    best = None  # (gain, feature, threshold)
    n = y.size
    # split after sorted position i sends rows 0..i left, weights (i+1)/n
    w_left = np.arange(1, n) / n
    w_right = np.arange(n - 1, 0, -1) / n
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        left = np.cumsum(onehot[order], axis=0)[:-1]
        h = w_left * _entropies(left) + w_right * _entropies(totals - left)
        split_at = np.flatnonzero(xs[1:] != xs[:-1])
        gains = (parent_h - h)[split_at]
        # the sequential rule below only ever takes a gain above every
        # earlier one (and above the best so far), so only those are visited
        floor = -np.inf if best is None else best[0]
        earlier = np.maximum.accumulate(np.concatenate(([floor], gains)))[:-1]
        for k in np.flatnonzero(gains > earlier).tolist():
            if best is None or gains[k] > best[0] + 1e-12:
                i = split_at[k]
                best = (float(gains[k]), j, 0.5 * (xs[i] + xs[i + 1]))
    if best is None or best[0] <= 1e-12:
        return node
    _, j, thr = best
    mask = X[:, j] <= thr
    node["feature"] = j
    node["threshold"] = thr
    node["left"] = _grow_tree(X[mask], y[mask], classes, depth + 1, max_depth)
    node["right"] = _grow_tree(X[~mask], y[~mask], classes, depth + 1, max_depth)
    return node


def _tree_scores(node, row, classes) -> np.ndarray:
    while "feature" in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    counts = node["counts"]
    return counts / counts.sum()


# --- LDA ---

def _fit_lda(X, y, classes):
    n, p = X.shape
    means = np.array([X[y == c].mean(axis=0) for c in classes])
    priors = np.array([np.mean(y == c) for c in classes])
    scatter = np.zeros((p, p))
    for c, mu in zip(classes, means):
        d = X[y == c] - mu
        scatter += d.T @ d
    cov = scatter / max(n - classes.size, 1) + LDA_RIDGE * np.eye(p)
    return {"means": means, "priors": priors, "cov_inv": np.linalg.inv(cov)}


def _lda_scores(state, X):
    means, priors, cov_inv = state["means"], state["priors"], state["cov_inv"]
    disc = np.empty((X.shape[0], means.shape[0]))
    for i, (mu, pi) in enumerate(zip(means, priors)):
        disc[:, i] = X @ cov_inv @ mu - 0.5 * mu @ cov_inv @ mu + np.log(pi)
    return _softmax(disc)


# --- logistic regression ---

def _fit_logistic(Z, y, classes, iters, step):
    n = Z.shape[0]
    Y = np.zeros((n, classes.size))
    for i, c in enumerate(classes):
        Y[y == c, i] = 1.0
    W = np.zeros((Z.shape[1] + 1, classes.size))
    Zb = np.hstack([Z, np.ones((n, 1))])
    for _ in range(iters):
        P = _softmax(Zb @ W)
        W -= step * (Zb.T @ (P - Y)) / n
    return {"W": W}


def _logistic_scores(state, Z):
    Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
    return _softmax(Zb @ state["W"])


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------

def make_folds(strategy: CVStrategy, rows: FeatureMatrix, seed: int = 0):
    """(train indices, test indices) pairs, none of them empty.

    LOSO yields one fold per distinct subject (test fold = exactly that
    subject's rows); k-fold shuffles with ``seed`` and splits into folds
    whose sizes differ by at most one.
    """
    n = len(rows)
    if strategy.kind == "loso":
        subjects = rows.subject_ids
        distinct = sorted(set(subjects.tolist()))
        if len(distinct) < 2:
            raise TooFewSubjects("LOSO needs at least 2 distinct subjects")
        return [(np.flatnonzero(subjects != s), np.flatnonzero(subjects == s))
                for s in distinct]
    if strategy.kind == "kfold":
        k = strategy.folds
        if k < 2 or k > n:
            raise TooFewRows(f"cannot make {k} folds from {n} rows")
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        chunks = np.array_split(order, k)
        folds = []
        for i in range(k):
            test = np.sort(chunks[i])
            train = np.sort(np.concatenate([chunks[j] for j in range(k) if j != i]))
            folds.append((train, test))
        return folds
    raise ValueError(f"unknown CV strategy {strategy.kind!r}")


def metrics(y_true, y_pred, scores=None, classes=None) -> dict[str, float]:
    """accuracy, micro F1, macro F1, and (binary, when scores given) AUC."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.size != y_pred.size:
        raise LengthMismatch(f"{y_true.size} true vs {y_pred.size} predicted")
    if classes is None:
        classes = np.unique(np.concatenate([y_true, y_pred]))
    else:
        classes = np.asarray(sorted(classes))
    acc = float(np.mean(y_true == y_pred))
    tp_total = fp_total = fn_total = 0
    per_class_f1 = []
    for c in classes:
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        tp_total += tp
        fp_total += fp
        fn_total += fn
        denom = 2 * tp + fp + fn
        per_class_f1.append(2 * tp / denom if denom else 0.0)
    micro_denom = 2 * tp_total + fp_total + fn_total
    out = {
        "accuracy": acc,
        "f1_micro": 2 * tp_total / micro_denom if micro_denom else 0.0,
        "f1_macro": float(np.mean(per_class_f1)),
    }
    if scores is not None and classes.size == 2:
        out["auc"] = roc_auc(y_true, np.asarray(scores, dtype=float),
                             positive=classes[1])
    return out


def roc_auc(y_true, scores, positive=1) -> float:
    """Trapezoidal area under the ROC curve (binary)."""
    y = np.asarray(y_true) == positive
    s = np.asarray(scores, dtype=float)
    if s.ndim == 2:  # per-class score columns; positive class is the last
        s = s[:, -1]
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    if n_pos == 0 or n_neg == 0:
        raise AUCUndefined("both classes must be present")
    thresholds = np.unique(s)[::-1]
    tpr = [0.0]
    fpr = [0.0]
    for thr in thresholds:
        hit = s >= thr
        tpr.append(np.sum(hit & y) / n_pos)
        fpr.append(np.sum(hit & ~y) / n_neg)
    return float(np.trapezoid(tpr, fpr))


@dataclass(frozen=True)
class EvaluationReport:
    """Per-model, per-fold metrics with mean/std aggregates."""

    per_model: dict  # name -> {"folds": [dict], "aggregate": {metric: (mean, std)}}
    strategy: CVStrategy

    def to_records(self) -> list[tuple[str, str, str, float]]:
        """Flat (model, fold, metric, value) rows; aggregates use
        fold='mean'/'std'.  Deterministic ordering throughout."""
        records = []
        for model in sorted(self.per_model):
            entry = self.per_model[model]
            for i, fold_metrics in enumerate(entry["folds"]):
                for metric in sorted(fold_metrics):
                    records.append((model, str(i), metric, fold_metrics[metric]))
            for metric in sorted(entry["aggregate"]):
                mean, std = entry["aggregate"][metric]
                records.append((model, "mean", metric, mean))
                records.append((model, "std", metric, std))
        return records

    def format_table(self) -> str:
        lines = [f"cross-validation: {self.strategy.kind} "
                 f"({len(next(iter(self.per_model.values()))['folds'])} folds)"]
        for model in sorted(self.per_model):
            agg = self.per_model[model]["aggregate"]
            parts = [f"{m}={agg[m][0]:.4f}±{agg[m][1]:.4f}" for m in sorted(agg)]
            lines.append(f"  {model:<20s} " + "  ".join(parts))
        return "\n".join(lines)


def cross_validate(specs, X: FeatureMatrix, y: LabelVector,
                   strategy: CVStrategy, seed: int = 0):
    """Fit/predict every spec on every fold of ``make_folds(strategy, X,
    seed)`` and aggregate the metrics.

    :func:`fit` sees only the raw training rows of a fold, so each model
    z-scores with that fold's training statistics and keeps them: passed
    back through :func:`predict` on the fold's test rows, a model in
    ``fitted_models`` reproduces the fold's predictions.  Returns
    (report, artifacts) where artifacts carries fitted models and the
    concatenated y_true / per-model y_pred / per-model scores in fold
    order.
    """
    y.check_against(X)
    Xa = X.to_array()
    ya = y.to_array()
    folds = make_folds(strategy, X, seed)
    classes = np.unique(ya)
    per_model = {}
    fitted = {}
    y_pred_all = {s.name: [] for s in specs}
    scores_all = {s.name: [] for s in specs}
    y_true_all = [ya[test] for _, test in folds]
    for spec in specs:
        fold_metrics = []
        fitted[spec.name] = []
        for train, test in folds:
            model = replace(fit(spec, Xa[train], ya[train]), columns=X.columns)
            pred, scores = predict(model, Xa[test])
            fitted[spec.name].append(model)
            y_pred_all[spec.name].append(pred)
            scores_all[spec.name].append(scores)
            try:
                m = metrics(ya[test], pred, scores, classes=classes)
            except AUCUndefined:
                m = metrics(ya[test], pred, None, classes=classes)
            fold_metrics.append(m)
        agg = {}
        for metric in sorted({k for fm in fold_metrics for k in fm}):
            vals = [fm[metric] for fm in fold_metrics if metric in fm]
            agg[metric] = (float(np.mean(vals)), float(np.std(vals)))
        per_model[spec.name] = {"folds": fold_metrics, "aggregate": agg}
    report = EvaluationReport(per_model, strategy)
    artifacts = {
        "fitted_models": fitted,
        "y_true": np.concatenate(y_true_all),
        "y_pred": {k: np.concatenate(v) for k, v in y_pred_all.items()},
        "scores": {
            k: (np.concatenate(v) if all(s is not None for s in v) else None)
            for k, v in scores_all.items()
        },
    }
    return report, artifacts
