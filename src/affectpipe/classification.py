"""Classifier training and prediction behind a uniform fit/predict
contract, cross-validation strategies, and metric computation.

Built-ins are implemented from first principles so tie-breaking and
seeding are fully specified: KNN (Euclidean; distance ties break on the
lower training-row index, vote ties on the smallest class id), a
CART-style decision tree with entropy criterion, LDA with a ridge-
regularized pooled covariance, softmax logistic regression trained by
batch gradient descent, and an equal-weight score-averaging ensemble.
Anything else plugs in through the custom handle contract (fit/predict,
optionally predict_proba).  The greedy forward feature search scores its
candidate columns with these classifiers, a KNN scorer from cached folds.

Each reduction has one summation order, whatever the number of columns or
classes: a column's z-score mean and standard deviation reduce that column
alone as one contiguous vector, a KNN squared distance adds the columns'
squared differences in column order, and a tree entropy adds its class
terms in class order.  So a statistic or distance over a set of columns
never depends on the columns beside them.
"""

from __future__ import annotations

import copy
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .checks import POSITIVE, REQUIRED, at_least, check_value, checked, one_of
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
#: Byte cap on the (queries, training rows) distance block that
#: _knn_scores materialises at once.
KNN_BLOCK_BYTES = 256 * 1024
#: Training rows a selection step scores each query against before it
#: falls back to every row: those of least selected-column distance, or in
#: the first step those around the query in the candidate's sorted column.
KNN_NEAR_ROWS = 64


@dataclass(frozen=True)
class ClassifierSpec:
    """A named classifier: ``algorithm`` is a key of :data:`ALGORITHMS`,
    whose ``hyperparameters`` table the spec is checked against and filled
    from (ValueError names the key), or ``custom`` with ``{"handle": obj}``,
    an object with ``fit`` and ``predict``."""

    name: str
    algorithm: str
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm != "custom":
            check_value("algorithm", self.algorithm, one_of(*ALGORITHMS, "custom"))
            object.__setattr__(self, "hyperparameters", checked(
                ALGORITHMS[self.algorithm].hyperparameters, self.hyperparameters,
                self.algorithm))


#: The keys of a :class:`CVStrategy`, each as (check, default): the kinds
#: :func:`make_folds` splits by, and the k of k-fold (loso ignores it).
CV_KEYS = {"kind": (one_of("kfold", "loso"), "kfold"), "folds": (at_least(2), 5)}


@dataclass(frozen=True)
class CVStrategy:
    """How :func:`make_folds` splits rows.  Raises ValueError naming a
    ``kind`` or ``folds`` that :data:`CV_KEYS` rejects."""

    kind: str = CV_KEYS["kind"][1]
    folds: int = CV_KEYS["folds"][1]

    def __post_init__(self):
        checked(CV_KEYS, vars(self), "CVStrategy")


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


def _training_rows(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, labels and sorted classes of a training set, checked as
    :func:`fit` checks them: finite rows, one label per row, two or more
    classes."""
    X = _as_array(X)
    y = y.to_array() if isinstance(y, LabelVector) else np.asarray(y, dtype=int)
    if X.shape[0] != y.size:
        raise LengthMismatch(f"{X.shape[0]} rows vs {y.size} labels")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClass("training labels contain a single class")
    return X, y, classes


def fit(spec: ClassifierSpec, X, y: LabelVector | np.ndarray) -> FittedModel:
    """Train one model on rows z-scored with their column mean and standard
    deviation (0 counts as 1); deterministic given identical inputs."""
    columns = X.columns if isinstance(X, FeatureMatrix) else None
    X, y, classes = _training_rows(X, y)
    mu, sigma = _zscore_stats(X)
    model = _fit_scaled(spec, classes, mu, sigma, (X - mu) / sigma, y)
    return model if columns is None else replace(model, columns=columns)


def _zscore_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and standard deviation of ``X``, a zero deviation counted
    as 1: the statistics :func:`fit` z-scores a model's rows with.

    Each column is reduced alone, as one contiguous vector."""
    cols = X.T.copy()
    mu = cols.mean(axis=1)
    sigma = cols.std(axis=1)
    return mu, np.where(sigma > 0, sigma, 1.0)


def _fit_scaled(spec, classes, mu, sigma, Z, y) -> FittedModel:
    """Fit ``spec`` on rows ``Z`` already z-scored with ``mu``/``sigma``."""
    hp = spec.hyperparameters
    if spec.algorithm == "AveragingEnsemble":
        # members share the ensemble's scaler
        state = {"members": [_fit_scaled(m, classes, mu, sigma, Z, y)
                             for m in hp["members"]]}
    elif spec.algorithm == "custom":
        handle = copy.deepcopy(hp["handle"])
        handle.fit(Z, y)
        state = {"handle": handle}
    else:
        state = ALGORITHMS[spec.algorithm].fit(Z, y, classes, **hp)
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
    if model.spec.algorithm == "custom":
        handle = model.state["handle"]
        labels = np.asarray(handle.predict(Z), dtype=int)
        scores = None
        if hasattr(handle, "predict_proba"):
            scores = np.asarray(handle.predict_proba(Z), dtype=float)
        return labels, scores
    scores = ALGORITHMS[model.spec.algorithm].scores(model, Z)
    # argmax returns the first maximum, i.e. the smallest class id on ties
    labels = model.classes[np.argmax(scores, axis=1)]
    return labels, scores


# --- KNN ---

def _knn_scores(model: FittedModel, X: np.ndarray) -> np.ndarray:
    train, y, k = model.state["X"], model.state["y"], model.state["k"]
    k = min(k, train.shape[0])
    scores = np.empty((X.shape[0], model.classes.size))
    train_cols, query_cols = train.T.copy(), X.T.copy()
    for rows in _row_blocks(train.shape[0], X.shape[0]):
        d = _squared_distances(train_cols, query_cols[:, rows])
        scores[rows] = _knn_vote(np.sqrt(d, out=d), y, model.classes, k)
    return scores


def _row_blocks(width: int, n_rows: int) -> list[slice]:
    """Consecutive slices over ``n_rows`` rows, each as long as a (rows,
    ``width``) float64 block within :data:`KNN_BLOCK_BYTES` allows, but at
    least one row; the last one may be shorter.  The rows are queries
    against ``width`` training rows, or in a selection step candidates
    against a query block's near sets."""
    block = max(1, KNN_BLOCK_BYTES // (8 * max(width, 1)))
    return [slice(start, start + block) for start in range(0, n_rows, block)]


def _squared_distances(train_cols: np.ndarray, query_cols: np.ndarray) -> np.ndarray:
    """(query rows, training rows) squared Euclidean distances.

    Both arguments hold one column per row (column-major copies of the
    rows); each column's ``(train - query) ** 2`` is added in column order.
    """
    total = None
    for t, q in zip(train_cols, query_cols):
        d = np.subtract(t[None, :], q[:, None])
        np.square(d, out=d)
        total = d if total is None else np.add(total, d, out=total)
    if total is None:
        return np.zeros((query_cols.shape[1], train_cols.shape[1]))
    return total


def _knn_vote(d: np.ndarray, y: np.ndarray, classes: np.ndarray,
             k: int) -> np.ndarray:
    """Per-class vote shares of the ``k`` nearest training rows, for each
    row of the (queries, training rows) distance matrix ``d``.

    ``y`` labels the training rows: one vector shared by every row of
    ``d``, or one row of labels per row of ``d`` when each query has its
    own candidate rows.  The k nearest are every row closer than the k-th
    distance, then rows at exactly that distance in column order until k
    are chosen, so distance ties break on the lower column, which is the
    lower training-row index when the columns are in index order.  ``k``
    is at most the number of columns.
    """
    if k == 1:
        # argmin returns the first minimum: the nearest row, lowest index
        # on ties; its class gets the whole vote
        nearest = np.broadcast_to(y, d.shape)[np.arange(d.shape[0]), np.argmin(d, axis=1)]
        return (nearest[:, None] == classes[None, :]).astype(float)
    # (training rows, classes), or (queries, columns, classes) for per-row labels
    onehot = (y[..., None] == classes).astype(float)
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
    counts = np.matmul(chosen[:, None, :], onehot)[:, 0].astype(int)
    # entry c is 1/k added c times in sequence, as a per-neighbour vote loop
    # would sum it
    vote = np.concatenate(([0.0], np.cumsum(np.full(k, 1.0 / k))))
    return vote[counts]


# --- sequential forward selection ---

def forward_selection(scorer: ClassifierSpec, X: np.ndarray, y: np.ndarray,
                      k: int, folds) -> tuple[list[int], list[dict]]:
    """Column indices chosen greedily, plus one dict per step mapping each
    candidate column to its mean CV accuracy over ``folds``.

    Each step adds the candidate whose ``selected + [candidate]`` scores
    best; ties keep the lower column index.  A KNN scorer scores every step
    from per-fold cached columns (see :class:`_KnnFolds`), each query first
    against a near set of training rows: in the first step the rows around
    it in the candidate's sorted column, later the rows of least
    selected-column distance.  Other scorers fit and predict every
    candidate on every fold.
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
    """The CV folds of a KNN scorer, cached for scoring whole selection steps.

    Per fold the train and test rows are z-scored once with the training
    statistics and stored column-major.  A column's statistics and squared
    differences do not depend on the columns beside it, so a step sums the
    selected columns' distances once, adds each candidate's column and feeds
    the square root to the same neighbour vote as :func:`predict`: every
    score equals a fit/predict on ``selected + [candidate]``.

    Each query is first scored against a near set of :data:`KNN_NEAR_ROWS`
    training rows, kept in index order, with a bound below which no other
    row lies:

    - In the first step (nothing selected), per candidate: each fold sorts
      the candidate's training column once, and a query's near set is the
      window of rows around its ``searchsorted`` position there.  Rounded
      ``t - q`` is monotone in the training value ``t``, and so are its
      square and root, so no row outside the window is nearer than the
      nearer of the two rows just outside it: that row's distance is the
      bound.
    - Once a column is selected, per query: its rows of least
      selected-column sum.  Adding a candidate's square and taking the
      root never lowers a row below the root of its sum, as rounding and
      the square root are monotone, so every other row lies at least the
      root of the next larger sum away.

    A vote whose k-th nearest distance in the near set is strictly below
    the bound is the vote over all rows, ties included; any other
    (candidate, query) pair is scored against every training row.

    The arrays a step builds per query block stay bounded whatever the
    number of candidates: a query block's candidates are scored in blocks
    too, so each (candidates, queries, near rows) array is within
    :data:`KNN_BLOCK_BYTES`, as is each full-row (queries, training rows)
    block.
    """

    def __init__(self, spec, X, y, folds):
        k = spec.hyperparameters["k_neighbors"]
        self.folds = []
        for train, test in folds:
            Xtr, y_train, classes = _training_rows(X[train], y[train])
            Xte = _as_array(X[test])
            mu, sigma = _zscore_stats(Xtr)
            self.folds.append({
                "train": ((Xtr - mu) / sigma).T.copy(),
                "test": ((Xte - mu) / sigma).T.copy(),
                "y_train": y_train, "y_test": y[test], "classes": classes,
                "k": min(k, train.size),
            })

    def step_scores(self, selected, candidates) -> list[float]:
        """Mean CV accuracy of ``selected + [j]`` for each candidate ``j``.

        A fold's test rows are scored in the query blocks of
        :func:`_knn_scores`, so every candidate reuses a block's summed
        selected columns while they are still in cache.  A fold's accuracy
        is its hits over its test rows.
        """
        cand = np.asarray(candidates)
        accs = np.empty((cand.size, len(self.folds)))
        for f, fold in enumerate(self.folds):
            n_train, n_test = fold["train"].shape[1], fold["y_test"].size
            near_rows = min(KNN_NEAR_ROWS, n_train - 1)
            train, test = fold["train"][cand], fold["test"][cand]
            ranked = None if selected else _ranked_columns(train, test)
            hits = np.zeros(cand.size, dtype=np.int64)
            for rows in _row_blocks(n_train, n_test):
                queries = np.arange(n_test)[rows]
                total = _squared_distances(fold["train"][selected],
                                           fold["test"][selected, rows])
                full = np.ones((cand.size, queries.size), dtype=bool)
                if near_rows >= fold["k"]:
                    summed = _sum_window(total, near_rows) if selected else None
                    for c in _row_blocks(queries.size * near_rows, cand.size):
                        window = summed if selected else _column_window(
                            [a[c] for a in ranked], test[c], queries, near_rows)
                        hit, full[c] = _near_hits(fold, train[c], test[c], queries, *window)
                        hits[c] += hit
                for i, j in enumerate(candidates):
                    if full[i].any():
                        hits[i] += _full_hits(fold, total[full[i]], j, queries[full[i]])
            accs[:, f] = hits / n_test
        return [float(np.mean(a)) for a in accs]


def _sum_window(total, near_rows):
    """Per query, its ``near_rows`` training rows of least selected-column
    sum in index order, their sums, and the root of the next larger sum."""
    part = np.argpartition(total, near_rows, axis=1)
    near = np.sort(part[:, :near_rows], axis=1)
    bound = np.sqrt(np.take_along_axis(total, part[:, near_rows:near_rows + 1], axis=1))
    return near, np.take_along_axis(total, near, axis=1), bound[:, 0]


def _ranked_columns(train, test):
    """Each candidate's training rows in the order of their values, those
    values, and each test value's ``searchsorted`` position among them."""
    order = np.argsort(train, axis=1)
    values = np.take_along_axis(train, order, axis=1)
    pos = np.array([np.searchsorted(v, q) for v, q in zip(values, test)])
    return order, values, pos


def _column_window(ranked, test, queries, near_rows):
    """Per (candidate, query), the ``near_rows`` training rows around the
    query's position in the candidate's ranked column, in index order; no
    selected sum (0); and the distance of the nearer of the two rows just
    outside the window, inf past either end of the column."""
    order, values, pos = ranked
    n_cand, n_train = order.shape
    lo = np.clip(pos[:, queries] - near_rows // 2, 0, n_train - near_rows)
    offset = n_train * np.arange(n_cand)[:, None]
    near = np.take(order, (offset + lo)[..., None] + np.arange(near_rows))
    near.sort(axis=2)
    outside = np.stack([lo - 1, lo + near_rows])
    d = np.subtract(np.take(values, offset + np.clip(outside, 0, n_train - 1)),
                    test[:, queries])
    np.square(d, out=d)
    np.sqrt(d, out=d)
    d[(outside < 0) | (outside == n_train)] = np.inf
    return near, 0.0, d.min(axis=0)


def _near_hits(fold, train, test, queries, near, sums, bound):
    """Hits of each candidate over the query rows ``queries`` whose vote
    the near set decides, and the (candidates, queries) mask of the pairs
    it cannot decide.  ``train`` and ``test`` hold the candidates' columns.

    ``near`` holds the near training rows in index order, ``sums`` their
    selected-column sums and ``bound`` the least distance of any other
    row: per query, shaped (queries, near rows) and (queries,), or per
    (candidate, query), shaped (candidates, queries, near rows) and
    (candidates, queries).  See :class:`_KnnFolds`."""
    (n_cand, n_train), near_rows = train.shape, near.shape[-1]
    # (candidates, queries, near rows): the same subtract, square, add and
    # root as the full rows
    d = np.take(train, n_train * np.arange(n_cand)[:, None, None] + near)
    np.subtract(d, test[:, queries, None], out=d)
    np.square(d, out=d)
    np.add(sums, d, out=d)
    np.sqrt(d, out=d)
    d = d.reshape(-1, near_rows)
    k, classes = fold["k"], fold["classes"]
    kth = np.partition(d, k - 1, axis=1)[:, k - 1]
    decided = kth.reshape(n_cand, queries.size) < bound
    y_near = np.broadcast_to(fold["y_train"][near], (n_cand, queries.size, near_rows))
    scores = _knn_vote(d, y_near.reshape(-1, near_rows), classes, k)
    pred = classes[np.argmax(scores, axis=1)].reshape(decided.shape)
    hits = np.count_nonzero(decided & (pred == fold["y_test"][queries]), axis=1)
    return hits, ~decided


def _full_hits(fold, total, j, queries) -> int:
    """Hits of candidate ``j`` over the query rows ``queries``, each scored
    against every training row; ``total`` holds their selected-column sums."""
    d = _squared_distances(fold["train"][j:j + 1], fold["test"][j:j + 1, queries])
    np.sqrt(np.add(total, d, out=d), out=d)
    scores = _knn_vote(d, fold["y_train"], fold["classes"], fold["k"])
    pred = fold["classes"][np.argmax(scores, axis=1)]
    return np.count_nonzero(pred == fold["y_test"][queries])


# --- decision tree ---

def _entropy(counts: np.ndarray) -> float:
    """Entropy in bits of one non-empty class count vector."""
    return float(_entropies(counts[None, :])[0])


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of a count matrix with no empty row,
    its class terms added in class order (a zero count adds +0.0)."""
    present = counts > 0
    p = counts / counts.sum(axis=1, keepdims=True)
    terms = np.where(present, p * np.log2(np.where(present, p, 1.0)), 0.0)
    total = np.zeros(counts.shape[0])
    for c in range(counts.shape[1]):
        total += terms[:, c]
    return -total


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


def _lda_scores(model, X):
    means, priors, cov_inv = (model.state[k] for k in ("means", "priors", "cov_inv"))
    disc = np.empty((X.shape[0], means.shape[0]))
    for i, (mu, pi) in enumerate(zip(means, priors)):
        disc[:, i] = X @ cov_inv @ mu - 0.5 * mu @ cov_inv @ mu + np.log(pi)
    return _softmax(disc)


# --- logistic regression ---

def _fit_logistic(Z, y, classes, iterations, step):
    n = Z.shape[0]
    Y = np.zeros((n, classes.size))
    for i, c in enumerate(classes):
        Y[y == c, i] = 1.0
    W = np.zeros((Z.shape[1] + 1, classes.size))
    Zb = np.hstack([Z, np.ones((n, 1))])
    for _ in range(iterations):
        P = _softmax(Zb @ W)
        W -= step * (Zb.T @ (P - Y)) / n
    return {"W": W}


def _logistic_scores(model, Z):
    Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
    return _softmax(Zb @ model.state["W"])


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# --- the algorithm table ---

@dataclass(frozen=True)
class Algorithm:
    """``fit(Z, y, classes, **hyperparameters)`` gives the state of a model
    of z-scored rows ``Z``, ``scores(model, Z)`` a row of class scores per
    row, and ``hyperparameters`` each key ``fit`` reads as (check, default)."""

    fit: Callable | None
    scores: Callable
    hyperparameters: dict = field(default_factory=dict)


_MEMBERS = (lambda v: type(v) in (list, tuple) and len(v) > 0
            and all(isinstance(m, ClassifierSpec) for m in v),
            "a non-empty list of classifier specs")

#: Every built-in algorithm by name.  KNN and the tree call their kernels
#: by module name, so a wrapper set on ``_knn_scores`` or ``_grow_tree``
#: sees every call.  An ensemble's members are fitted by ``_fit_scaled``,
#: with the ensemble's scaler.
ALGORITHMS = {
    "KNN": Algorithm(
        lambda Z, y, classes, k_neighbors: {"X": Z, "y": y.copy(), "k": k_neighbors},
        lambda model, Z: _knn_scores(model, Z),
        {"k_neighbors": (at_least(1), 5)}),
    "DecisionTree": Algorithm(
        lambda Z, y, classes, criterion, max_depth: {
            "tree": _grow_tree(Z, y, classes, 0, max_depth)},
        lambda model, Z: np.array([_tree_scores(model.state["tree"], row, model.classes)
                                   for row in Z]),
        {"criterion": (one_of("entropy"), "entropy"), "max_depth": (at_least(1), None)}),
    "LDA": Algorithm(_fit_lda, _lda_scores),
    "LogisticRegression": Algorithm(_fit_logistic, _logistic_scores, {
        "iterations": (at_least(1), LOGISTIC_ITERS), "step": (POSITIVE, LOGISTIC_STEP)}),
    "AveragingEnsemble": Algorithm(
        None, lambda model, Z: np.mean([_predict_scaled(m, Z)[1]
                                        for m in model.state["members"]], axis=0),
        {"members": (_MEMBERS, REQUIRED)}),
}


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
    k = strategy.folds  # a CVStrategy is loso or kfold, with k >= 2
    if k > n:
        raise TooFewRows(f"cannot make {k} folds from {n} rows")
    order = np.random.default_rng(seed).permutation(n)
    # a fold trains on every row outside its test chunk
    return [(np.setdiff1d(np.arange(n), test), np.sort(test))
            for test in np.array_split(order, k)]


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
class FoldResult:
    """One model on one fold of :func:`make_folds`: ``y_pred`` and ``scores``
    (columns under the run's classes) follow the ``test`` row indices."""

    model: FittedModel
    train: np.ndarray
    test: np.ndarray
    y_pred: np.ndarray
    scores: np.ndarray | None
    metrics: dict[str, float]


@dataclass(frozen=True)
class EvaluationReport:
    """Per-model fold records with mean/std aggregates of their metrics."""

    per_model: dict  # name -> tuple of FoldResult, in fold order
    strategy: CVStrategy

    def aggregate(self, model: str) -> dict[str, tuple[float, float]]:
        """Each metric's (mean, std) over ``model``'s folds."""
        folds = [r.metrics for r in self.per_model[model]]
        agg = {}
        for metric in sorted({k for fm in folds for k in fm}):
            vals = [fm[metric] for fm in folds if metric in fm]
            agg[metric] = (float(np.mean(vals)), float(np.std(vals)))
        return agg

    def in_row_order(self, model: str, field: str) -> np.ndarray | None:
        """``model``'s ``y_pred`` or ``scores`` by row; None if a fold has none."""
        parts = [getattr(r, field) for r in self.per_model[model]]
        if any(part is None for part in parts):
            return None
        rows = np.empty((sum(map(len, parts)), *parts[0].shape[1:]), parts[0].dtype)
        for r, part in zip(self.per_model[model], parts):
            rows[r.test] = part
        return rows

    def to_records(self) -> list[tuple[str, str, str, float]]:
        """Flat (model, fold, metric, value) rows; aggregates use
        fold='mean'/'std'.  Deterministic ordering throughout."""
        records = []
        for model in sorted(self.per_model):
            for i, fold in enumerate(self.per_model[model]):
                for metric in sorted(fold.metrics):
                    records.append((model, str(i), metric, fold.metrics[metric]))
            for metric, (mean, std) in self.aggregate(model).items():
                records.append((model, "mean", metric, mean))
                records.append((model, "std", metric, std))
        return records

    def format_table(self) -> str:
        lines = [f"cross-validation: {self.strategy.kind} "
                 f"({len(next(iter(self.per_model.values())))} folds)"]
        for model in sorted(self.per_model):
            agg = self.aggregate(model)
            parts = [f"{m}={agg[m][0]:.4f}±{agg[m][1]:.4f}" for m in sorted(agg)]
            lines.append(f"  {model:<20s} " + "  ".join(parts))
        return "\n".join(lines)


def cross_validate(specs, X: FeatureMatrix, y: LabelVector,
                   strategy: CVStrategy, seed: int = 0) -> EvaluationReport:
    """Fit/predict every spec on every fold of ``make_folds(strategy, X,
    seed)``: one :class:`FoldResult` per (spec, fold).

    :func:`fit` sees only the raw training rows of a fold, so each model
    z-scores with that fold's training statistics and keeps them.
    """
    y.check_against(X)
    Xa = X.to_array()
    ya = y.to_array()
    folds = make_folds(strategy, X, seed)
    classes = np.unique(ya)
    per_model = {}
    for spec in specs:
        records = []
        for train, test in folds:
            model = replace(fit(spec, Xa[train], ya[train]), columns=X.columns)
            pred, scores = predict(model, Xa[test])
            if scores is not None:  # under the run's classes; 0 for one the fold lacks
                placed = np.zeros((test.size, classes.size))
                placed[:, np.searchsorted(classes, model.classes)] = scores
                scores = placed
            try:
                m = metrics(ya[test], pred, scores, classes=classes)
            except AUCUndefined:
                m = metrics(ya[test], pred, None, classes=classes)
            records.append(FoldResult(model, train, test, pred, scores, m))
        per_model[spec.name] = tuple(records)
    return EvaluationReport(per_model, strategy)

