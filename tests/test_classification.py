import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affectpipe import (
    ClassifierSpec,
    CVStrategy,
    FeatureMatrix,
    cross_validate,
    fit,
    make_folds,
    metrics,
    predict,
    roc_auc,
)
from affectpipe.errors import (
    AUCUndefined,
    LengthMismatch,
    NonNumericFeature,
    SchemaMismatch,
    SingleClass,
    TooFewRows,
    TooFewSubjects,
)
from affectpipe import classification
from affectpipe.types import LabelVector

KNN = lambda k: ClassifierSpec(f"knn{k}", "KNN", {"k_neighbors": k})
TREE = ClassifierSpec("tree", "DecisionTree", {"criterion": "entropy"})
LDA = ClassifierSpec("lda", "LDA")
LOGIT = ClassifierSpec("logit", "LogisticRegression")


def fm(X, subjects=None, phases=None):
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    subjects = subjects or [f"S{i}" for i in range(n)]
    phases = phases or ["a"] * n
    return FeatureMatrix(tuple(f"f{j}" for j in range(X.shape[1])), subjects,
                         phases, range(n), X)


def lv(y):
    y = [int(v) for v in y]
    return LabelVector(tuple(y), {c: str(c) for c in sorted(set(y))})


# --- fit / predict ---

def test_knn_stores_training_set_verbatim():
    X = np.random.default_rng(0).normal([5.0, -2.0, 0.0], [3.0, 0.1, 1.0], (12, 3))
    y = np.array([0, 1] * 6)
    model = fit(KNN(9), X, y)
    np.testing.assert_array_equal(model.mu, X.mean(axis=0))
    np.testing.assert_array_equal(model.sigma, X.std(axis=0))
    np.testing.assert_array_equal(model.state["X"], (X - model.mu) / model.sigma)
    np.testing.assert_array_equal(model.state["y"], y)
    assert model.state["k"] == 9


def _column_stats(X):
    """Reference z-score statistics: each column's mean and standard
    deviation reduced alone, as a 1-D contiguous vector."""
    cols = [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]
    return np.array([c.mean() for c in cols]), np.array([c.std() for c in cols])


@pytest.mark.parametrize("seed", range(3))
def test_zscore_stats_of_a_column_ignore_its_neighbours(seed):
    rng = np.random.default_rng(seed)
    for width in range(1, 13):
        X = rng.normal(0, 1, (97, width)) * rng.uniform(0.5, 30, width) \
            + rng.uniform(-100, 100, width)
        mu, sigma = classification._zscore_stats(X)
        for j in range(width):
            mu_j, sigma_j = classification._zscore_stats(X[:, [j]])
            assert mu[j:j + 1].tobytes() == mu_j.tobytes(), (width, j)
            assert sigma[j:j + 1].tobytes() == sigma_j.tobytes(), (width, j)


def test_tree_separable_four_points_depth_1():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    model = fit(TREE, X, y)
    tree = model.state["tree"]
    assert "feature" in tree
    assert "feature" not in tree["left"] and "feature" not in tree["right"]
    pred, _ = predict(model, X)
    assert np.mean(pred == y) == 1.0


def _grow_tree_rowwise(X, y, classes, depth, max_depth):
    """Reference: the split search one sorted position at a time."""
    class_pos = {c: i for i, c in enumerate(classes)}
    counts = np.bincount([class_pos[v] for v in y], minlength=classes.size).astype(float)
    node = {"counts": counts}
    if counts.max() == counts.sum() or (max_depth is not None and depth >= max_depth):
        return node
    parent_h = classification._entropy(counts)
    best = None
    n = y.size
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs, ys = X[order, j], y[order]
        left = np.zeros(classes.size)
        right = counts.copy()
        for i in range(n - 1):
            c = class_pos[ys[i]]
            left[c] += 1
            right[c] -= 1
            if xs[i + 1] == xs[i]:
                continue
            h = (((i + 1) / n) * classification._entropy(left)
                 + ((n - i - 1) / n) * classification._entropy(right))
            gain = parent_h - h
            thr = 0.5 * (xs[i] + xs[i + 1])
            if best is None or gain > best[0] + 1e-12:
                best = (gain, j, thr)
    if best is None or best[0] <= 1e-12:
        return node
    _, j, thr = best
    mask = X[:, j] <= thr
    node["feature"] = j
    node["threshold"] = thr
    node["left"] = _grow_tree_rowwise(X[mask], y[mask], classes, depth + 1, max_depth)
    node["right"] = _grow_tree_rowwise(X[~mask], y[~mask], classes, depth + 1, max_depth)
    return node


def _tree_bits(node):
    """Pre-order (feature, threshold bits, counts bits) of every node."""
    out = [(node.get("feature"),
            np.float64(node["threshold"]).tobytes() if "feature" in node else None,
            node["counts"].tobytes())]
    if "feature" in node:
        out += _tree_bits(node["left"]) + _tree_bits(node["right"])
    return out


def _tree_data(kind, seed):
    rng = np.random.default_rng(seed)
    if kind.startswith("classes-"):
        k = int(kind.split("-")[1])
        y = rng.integers(0, k, 90)
        X = rng.normal(0.0, 1.0, (90, 4)) + 0.4 * y[:, None]
    elif kind == "duplicates":
        y = rng.integers(0, 3, 80)
        X = rng.integers(0, 4, (80, 3)).astype(float) + (y[:, None] > 1)
    elif kind == "tied-column":
        y = rng.integers(0, 2, 60)
        X = np.column_stack([np.full(60, 2.5), rng.normal(0.0, 1.0, 60) + y,
                             np.full(60, -1.0)])
    elif kind == "mirrored":
        # f1 = -f0 reverses the sort order: every split of f0 reappears with
        # left and right swapped, so their gains tie or differ by rounding
        # only, well inside the 1e-12 tolerance; f2 and f3 are a permuted
        # and a rounded copy of f0
        y = rng.integers(0, 3, 70)
        f0 = rng.normal(0.0, 1.0, 70) + y
        X = np.column_stack([f0, -f0, f0[::-1], np.round(f0)])
    else:
        raise ValueError(kind)
    return X, y


@pytest.mark.parametrize("kind", ["classes-2", "classes-3", "classes-5",
                                  "classes-9", "duplicates", "tied-column",
                                  "mirrored"])
@pytest.mark.parametrize("max_depth", [None, 0, 1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tree_bit_identical_to_rowwise_search(kind, max_depth, seed):
    X, y = _tree_data(kind, seed)
    classes = np.unique(y)
    got = classification._grow_tree(X, y, classes, 0, max_depth)
    want = _grow_tree_rowwise(X, y, classes, 0, max_depth)
    assert _tree_bits(got) == _tree_bits(want)
    assert type(got.get("threshold")) is type(want.get("threshold"))


@pytest.mark.parametrize("n_classes", [2, 3, 5, 7, 8, 9, 12])
def test_entropies_bit_identical_to_entropy(n_classes):
    rng = np.random.default_rng(n_classes)
    counts = rng.integers(0, 40, (500, n_classes))
    counts[rng.random(counts.shape) < 0.3] = 0  # zero classes among the rest
    counts[:, 0] += 1  # no empty rows
    counts[:5] = 0
    counts[:5, :1] = 7  # pure rows
    want = []
    for row in counts:
        # the class terms added one at a time, in class order
        h = 0.0
        for c in row[row > 0]:
            p = c / row.sum()
            h += p * np.log2(p)
        want.append(-h)
    want = np.array(want)
    assert classification._entropies(counts).tobytes() == want.tobytes()
    got = np.array([classification._entropy(row.astype(float)) for row in counts])
    assert got.tobytes() == want.tobytes()


def test_tree_keeps_first_split_within_tolerance(monkeypatch):
    # gains 0.5, 0.5 + 2e-12 and 0.5 + 2.5e-12 at the three split points
    # of one column: the sequential rule keeps the second (the third is not
    # 1e-12 above it), where an argmax would take the third
    gains = np.array([0.5, 0.5 + 2e-12, 0.5 + 2.5e-12])
    monkeypatch.setattr(classification, "_entropy", lambda counts: 1.0)
    monkeypatch.setattr(classification, "_entropies", lambda counts: 1.0 - gains)
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = classification._grow_tree(X, np.array([0, 1, 0, 1]),
                                     np.array([0, 1]), 0, 1)
    assert tree["threshold"] == 1.5


def test_tree_split_between_adjacent_doubles_separates_them():
    # the midpoint of two adjacent doubles can round up to the upper one;
    # a threshold there would send every row left and recurse without end
    X = np.array([[0.09548302746945433], [0.03558623705548571],
                  [-0.5062916583143148], [0.09548302746945435]])
    y = np.array([0, 0, 0, 1])
    pred, _ = predict(fit(TREE, X, y), X)
    assert pred.tolist() == y.tolist()
    lo, hi = 0.3, 0.30000000000000004
    assert 0.5 * (lo + hi) == hi
    tree = classification._grow_tree(np.array([[lo], [hi]]), np.array([0, 1]),
                                     np.array([0, 1]), 0, None)
    assert tree["threshold"] == lo
    assert tree["left"]["counts"].tolist() == [1.0, 0.0]
    assert tree["right"]["counts"].tolist() == [0.0, 1.0]


def test_single_class_rejected():
    with pytest.raises(SingleClass):
        fit(KNN(1), np.zeros((4, 2)), np.zeros(4, dtype=int))


@pytest.mark.parametrize("k", [0, -3])
def test_knn_rejects_k_below_one(k):
    with pytest.raises(ValueError):
        fit(KNN(k), np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]))


def test_knn_k1_identity():
    X = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    y = np.array([0, 1, 2])
    model = fit(KNN(1), X, y)
    pred, _ = predict(model, X)
    np.testing.assert_array_equal(pred, y)


def test_knn_k3_majority_vote():
    X = np.array([[0.0], [0.2], [1.0]])
    y = np.array([0, 0, 1])
    model = fit(KNN(3), X, y)
    pred, scores = predict(model, np.array([[0.5]]))
    assert pred[0] == 0
    np.testing.assert_allclose(scores[0], [2 / 3, 1 / 3])


def test_knn_vote_tie_breaks_to_smallest_class():
    X = np.array([[0.0], [1.0]])
    y = np.array([1, 0])
    model = fit(KNN(2), X, y)
    pred, _ = predict(model, np.array([[0.5]]))
    assert pred[0] == 0


def _knn_scores_rowwise(model, X):
    """Per-query KNN scorer, kept as the bit-exact reference: each query's
    squared differences are added column by column, in column order."""
    train, y, k = model.state["X"], model.state["y"], model.state["k"]
    k = min(k, train.shape[0])
    scores = np.zeros((X.shape[0], model.classes.size))
    class_pos = {c: i for i, c in enumerate(model.classes)}
    for i, q in enumerate(X):
        d2 = np.zeros(train.shape[0])
        for j in range(train.shape[1]):
            d2 += (train[:, j] - q[j]) ** 2
        d = np.sqrt(d2)
        order = np.lexsort((np.arange(d.size), d))[:k]
        for j in order:
            scores[i, class_pos[y[j]]] += 1.0 / k
    return scores


@pytest.mark.parametrize("p", range(1, 13))  # numpy's own sums turn pairwise at 8
def test_knn_block_scores_bit_identical_to_rowwise(p):
    rng = np.random.default_rng(p)
    n_train, n_query = 120, 300
    # every p puts more queries than one block holds through the kernel
    assert n_query > classification.KNN_BLOCK_BYTES // (8 * n_train * p)
    data = {
        "normal": (rng.normal(0, 1, (n_train, p)), rng.normal(0, 1, (n_query, p))),
        # few distinct values, so distance ties are everywhere
        "ties": (rng.integers(0, 3, (n_train, p)).astype(float),
                 rng.integers(0, 3, (n_query, p)).astype(float)),
        # rows permute one vector and queries are constant, so every
        # distance is equal in exact arithmetic and only the summation
        # order's rounding ranks the neighbours
        "rounding": (rng.permuted(np.tile(rng.normal(0, 1, p), (n_train, 1)), axis=1),
                     np.repeat(rng.normal(0, 1, (n_query, 1)), p, axis=1)),
    }
    for X, Q in data.values():
        for n_classes in (2, 3):
            y = rng.integers(0, n_classes, n_train)
            y[:n_classes] = np.arange(n_classes)
            for k in (1, 2, 3, 4, 9, n_train, n_train + 7):
                model = fit(KNN(k), X, y)
                got = classification._knn_scores(model, Q)
                want = _knn_scores_rowwise(model, Q)
                assert got.tobytes() == want.tobytes(), (p, n_classes, k)


def test_knn_block_scores_bit_identical_on_exact_distance_ties():
    # a hand-built state keeps raw rows that permute one vector, so against
    # a constant query every distance ties in exact arithmetic and only the
    # summation order's rounding ranks the neighbours
    rng = np.random.default_rng(0)
    for p in (3, 8, 11):
        X = rng.permuted(np.tile(rng.normal(0, 1, p), (120, 1)), axis=1)
        Q = np.repeat(rng.normal(0, 1, (300, 1)), p, axis=1)
        y = np.arange(120) % 3
        for k in (1, 4, 9):
            model = classification.FittedModel(
                KNN(k), np.arange(3), np.zeros(p), np.ones(p),
                {"X": X, "y": y, "k": k})
            got = classification._knn_scores(model, Q)
            assert got.tobytes() == _knn_scores_rowwise(model, Q).tobytes(), (p, k)


def test_knn_vote_on_hand_built_distances_matches_rowwise():
    # training points on a line at repeated integers, queries at integers:
    # every distance |x - q| is exact, and many tie at the k-th distance
    train = np.array([0.0, 1, 1, 2, 3, 3, 3, 5, 5, 6])
    queries = np.array([0.0, 1, 2, 3, 4, 5, 6, 7])
    y = np.array([0, 1, 2, 0, 1, 2, 0, 1, 0, 2])
    classes = np.arange(3)
    d = np.abs(train[None, :] - queries[:, None])
    for k in (1, 2, 3, 4, 7, 10):
        kth = np.sort(d, axis=1)[:, k - 1:k]
        over = (d <= kth).sum(axis=1) > k
        if 1 < k < train.size:
            # rows whose ties exceed the free places, and rows without
            assert over.any() and not over.all(), k
        model = classification.FittedModel(KNN(k), classes, np.zeros(1), np.ones(1),
                                           {"X": train[:, None], "y": y, "k": k})
        want = _knn_scores_rowwise(model, queries[:, None])
        got = classification._knn_vote(d, y, classes, k)
        assert got.tobytes() == want.tobytes(), k


def test_knn_brute_force_oracle():
    rng = np.random.default_rng(42)
    X = rng.normal(0, 1, (150, 4))
    y = rng.integers(0, 3, 150)
    y[:3] = [0, 1, 2]  # guarantee all classes
    X = X * [1.0, 10.0, 0.1, 3.0] + [0.0, 5.0, -1.0, 2.0]  # unequal column scales
    Q = rng.normal(0, 1, (50, 4)) * [1.0, 10.0, 0.1, 3.0] + [0.0, 5.0, -1.0, 2.0]
    # the oracle z-scores with the training statistics
    mu, sigma = X.mean(axis=0), X.std(axis=0)
    Xz, Qz = (X - mu) / sigma, (Q - mu) / sigma
    for k in (1, 3, 7):
        model = fit(KNN(k), X, y)
        pred, _ = predict(model, Q)
        classes = np.unique(y)
        for qi, q in enumerate(Qz):
            dist = [(float(np.sqrt(np.sum((Xz[i] - q) ** 2))), i)
                    for i in range(X.shape[0])]
            neighbors = [i for _, i in sorted(dist)[:k]]
            votes = {c: sum(1 for i in neighbors if y[i] == c) for c in classes}
            best = max(votes.values())
            expected = min(c for c in classes if votes[c] == best)
            assert pred[qi] == expected


def test_lda_gaussian_clouds():
    rng = np.random.default_rng(5)
    a = rng.normal([0, 0], 0.5, (200, 2))
    b = rng.normal([4, 0], 0.5, (200, 2))
    X = np.vstack([a[:150], b[:150]])
    y = np.array([0] * 150 + [1] * 150)
    model = fit(LDA, X, y)
    holdout = np.vstack([a[150:], b[150:]])
    truth = np.array([0] * 50 + [1] * 50)
    pred, _ = predict(model, holdout)
    assert np.mean(pred == truth) >= 0.99


def test_logistic_separable():
    rng = np.random.default_rng(6)
    X = np.vstack([rng.normal(-2, 0.5, (50, 2)), rng.normal(2, 0.5, (50, 2))])
    y = np.array([0] * 50 + [1] * 50)
    model = fit(LOGIT, X, y)
    pred, scores = predict(model, X)
    assert np.mean(pred == y) >= 0.99
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_scores_are_probabilities():
    rng = np.random.default_rng(7)
    X = rng.normal(0, 1, (30, 3))
    y = rng.integers(0, 2, 30)
    y[:2] = [0, 1]
    for spec in (KNN(5), TREE, LDA, LOGIT):
        _, scores = predict(fit(spec, X, y), X)
        assert np.all(scores >= 0) and np.all(scores <= 1)
        np.testing.assert_allclose(scores.sum(axis=1), 1.0, atol=1e-9)


def test_schema_mismatch():
    model = fit(KNN(1), np.zeros((4, 3)) + np.arange(4)[:, None],
                np.array([0, 1, 0, 1]))
    with pytest.raises(SchemaMismatch):
        predict(model, np.zeros((2, 2)))


def test_model_fitted_on_matrix_checks_column_names_and_order():
    X = np.arange(12.0).reshape(4, 3) ** 2
    y = np.array([0, 1, 0, 1])
    model = fit(KNN(1), fm(X), y)
    assert model.columns == ("f0", "f1", "f2")
    assert fit(KNN(1), X, y).columns is None
    np.testing.assert_array_equal(predict(model, fm(X))[0], y)
    np.testing.assert_array_equal(predict(model, X)[0], y)  # a bare array has no names
    for columns in (("f2", "f1", "f0"), ("f0", "f1", "g2")):
        renamed = FeatureMatrix(columns, [f"S{i}" for i in range(4)], ["a"] * 4,
                                range(4), X)
        with pytest.raises(SchemaMismatch, match="columns"):
            predict(model, renamed)


def test_custom_handle_contract():
    class Majority:
        def fit(self, X, y):
            vals, counts = np.unique(y, return_counts=True)
            self.label = int(vals[np.argmax(counts)])
        def predict(self, X):
            return np.full(X.shape[0], self.label)

    spec = ClassifierSpec("maj", "custom", {"handle": Majority()})
    model = fit(spec, np.zeros((5, 1)) + np.arange(5)[:, None],
                np.array([0, 1, 1, 1, 0]))
    pred, scores = predict(model, np.zeros((3, 1)))
    np.testing.assert_array_equal(pred, [1, 1, 1])
    assert scores is None


def test_custom_handle_with_predict_proba_gives_scores_and_auc():
    class Nearest:
        """1-NN labels; the scores are each class's share of the 3 nearest."""

        def fit(self, X, y):
            self.X, self.y = X, y

        def predict(self, X):
            return self.classes_of(X)[0]

        def predict_proba(self, X):
            return self.classes_of(X)[1]

        def classes_of(self, X):
            order = np.argsort(((X[:, None, :] - self.X[None]) ** 2).sum(axis=2), axis=1)
            near = self.y[order[:, :3]]
            return near[:, 0], np.stack([(near == c).mean(axis=1) for c in (0, 1)], axis=1)

    m, labels = _separable()
    spec = ClassifierSpec("near", "custom", {"handle": Nearest()})
    pred, scores = predict(fit(spec, m.to_array(), labels.to_array()), m.to_array()[:4])
    np.testing.assert_array_equal(scores, [[1.0, 0.0]] * 4)
    np.testing.assert_array_equal(pred, [0] * 4)
    report = cross_validate([spec], m, labels, CVStrategy("kfold", 4))
    assert all(fold.scores.shape == (fold.test.size, 2) for fold in report.per_model["near"])
    assert [r[1] for r in report.to_records() if r[2] == "auc"] == [
        "0", "1", "2", "3", "mean", "std"]
    assert report.aggregate("near")["auc"] == (1.0, 0.0)


class _FitOnly:
    predict = None  # present, but not callable

    def fit(self, X, y):
        pass


class _FitPredict(_FitOnly):
    def predict(self, X):
        return np.zeros(len(X), dtype=int)


@pytest.mark.parametrize("hyperparameters, match", [
    ({}, "missing 'custom.handle'"),
    ({"handle": 3}, "custom.handle must be an object with callable fit and predict, got 3"),
    ({"handle": _FitOnly()}, "custom.handle must be an object with callable fit and predict"),
    ({"handle": _FitPredict(), "scale": True}, "unknown keys: custom.scale"),
])
def test_custom_handle_is_checked_when_built(hyperparameters, match):
    with pytest.raises(ValueError, match=match):
        ClassifierSpec("h", "custom", hyperparameters)


def test_fit_and_predict_reject_non_finite_feature_matrix():
    X = np.arange(12.0).reshape(6, 2)
    y = np.array([0, 1] * 3)
    for bad in (np.nan, np.inf):
        Xbad = X.copy()
        Xbad[2, 1] = bad
        with pytest.raises(NonNumericFeature):
            fit(KNN(1), fm(Xbad), y)
        with pytest.raises(NonNumericFeature):
            predict(fit(KNN(1), fm(X), y), fm(Xbad))


def test_constant_column_scales_by_one():
    X = np.column_stack([np.arange(6.0), np.full(6, 4.0)])
    model = fit(LDA, X, np.array([0, 0, 0, 1, 1, 1]))
    np.testing.assert_array_equal(model.mu, [2.5, 4.0])
    assert model.sigma[1] == 1.0


def test_custom_handle_receives_z_scored_rows():
    seen = []

    class Recorder:
        def fit(self, X, y):
            seen.append(X.copy())

        def predict(self, X):
            seen.append(X.copy())
            return np.zeros(X.shape[0], dtype=int)

    rng = np.random.default_rng(3)
    X = rng.normal([10.0, -4.0], [5.0, 0.01], (20, 2))
    Q = rng.normal([10.0, -4.0], [5.0, 0.01], (4, 2))
    model = fit(ClassifierSpec("rec", "custom", {"handle": Recorder()}), X,
                np.array([0, 1] * 10))
    predict(model, Q)
    mu, sigma = _column_stats(X)
    np.testing.assert_array_equal(seen[0], (X - mu) / sigma)
    np.testing.assert_array_equal(seen[1], (Q - mu) / sigma)


def test_ensemble_members_share_one_scaler():
    rng = np.random.default_rng(9)
    X = rng.normal([3.0, 0.0, -8.0], [2.0, 0.5, 4.0], (30, 3))
    y = np.array([0, 1] * 15)
    model = fit(ClassifierSpec("ens", "AveragingEnsemble",
                               {"members": [KNN(3), LDA]}), X, y)
    knn = model.state["members"][0]
    for member in model.state["members"]:
        assert member.mu is model.mu and member.sigma is model.sigma
    # the member holds the rows z-scored once, bit for bit
    assert knn.state["X"].tobytes() == ((X - model.mu) / model.sigma).tobytes()


def test_ensemble_scores_are_member_mean():
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, (40, 3))
    y = rng.integers(0, 2, 40)
    y[:2] = [0, 1]
    members = [KNN(3), LDA]
    ens = ClassifierSpec("ens", "AveragingEnsemble", {"members": members})
    model = fit(ens, X, y)
    Q = rng.normal(0, 1, (10, 3))
    _, ens_scores = predict(model, Q)
    member_scores = [predict(fit(m, X, y), Q)[1] for m in members]
    np.testing.assert_allclose(ens_scores, np.mean(member_scores, axis=0))
    pred, _ = predict(model, Q)
    np.testing.assert_array_equal(pred, model.classes[np.argmax(ens_scores, axis=1)])


# --- folds ---

def test_loso_15_subjects():
    X = np.arange(30, dtype=float).reshape(30, 1)
    subjects = [f"P{i // 2}" for i in range(30)]  # 15 subjects, 2 rows each
    m = fm(X, subjects=subjects)
    folds = make_folds(CVStrategy("loso"), m)
    assert len(folds) == 15
    for train, test in folds:
        test_subjects = {subjects[i] for i in test}
        train_subjects = {subjects[i] for i in train}
        assert len(test_subjects) == 1
        assert not test_subjects & train_subjects
    all_test = sorted(i for _, test in folds for i in test)
    assert all_test == list(range(30))


def test_kfold_even_split():
    m = fm(np.arange(10, dtype=float).reshape(10, 1))
    folds = make_folds(CVStrategy("kfold", folds=5), m, seed=1)
    assert len(folds) == 5
    assert all(len(test) == 2 for _, test in folds)


def test_loso_single_subject_rejected():
    m = fm(np.zeros((4, 1)), subjects=["S1"] * 4)
    with pytest.raises(TooFewSubjects):
        make_folds(CVStrategy("loso"), m)


def test_kfold_too_many_folds_rejected():
    m = fm(np.zeros((3, 1)))
    with pytest.raises(TooFewRows):
        make_folds(CVStrategy("kfold", folds=5), m)


@given(st.integers(4, 60), st.integers(2, 8), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_kfold_partition_laws(n, k, seed):
    if k > n:
        return
    m = fm(np.arange(n, dtype=float).reshape(n, 1))
    folds = make_folds(CVStrategy("kfold", folds=k), m, seed)
    sizes = [len(test) for _, test in folds]
    assert max(sizes) - min(sizes) <= 1
    all_test = sorted(i for _, test in folds for i in test)
    assert all_test == list(range(n))
    for train, test in folds:
        assert not set(train) & set(test)
        assert len(train) + len(test) == n


def _make_folds_per_pass(strategy, rows, seed=0):
    """The folds of :func:`make_folds` built as two passes: one string
    comparison per distinct subject under LOSO, and under k-fold each test
    chunk sorted with every other row its training rows."""
    n = len(rows)
    if strategy.kind == "loso":
        subjects = rows.subject_ids
        distinct = sorted(set(subjects.tolist()))
        if len(distinct) < 2:
            raise TooFewSubjects("LOSO needs at least 2 distinct subjects")
        return [(np.flatnonzero(subjects != s), np.flatnonzero(subjects == s))
                for s in distinct]
    k = strategy.folds
    if k > n:
        raise TooFewRows(f"cannot make {k} folds from {n} rows")
    order = np.random.default_rng(seed).permutation(n)
    return [(np.setdiff1d(np.arange(n), test), np.sort(test))
            for test in np.array_split(order, k)]


def _assert_same_folds(got, want):
    assert len(got) == len(want)
    for (train, test), (train_ref, test_ref) in zip(got, want):
        for a, b in ((train, train_ref), (test, test_ref)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_folds_from_fold_ids_equal_the_per_pass_folds():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5, 7, 10, 11, 16, 29, 50, 64, 97, 128, 199, 200):
        rows = np.zeros((n, 1))  # k-fold reads only the row count
        for k in range(2, 11):
            for seed in range(10):
                strategy = CVStrategy("kfold", k)
                if k > n:
                    with pytest.raises(TooFewRows):
                        make_folds(strategy, rows, seed)
                    continue
                _assert_same_folds(make_folds(strategy, rows, seed),
                                   _make_folds_per_pass(strategy, rows, seed))
        for _ in range(6):
            # uneven blocks of 2-12 subjects, interleaved, with names whose
            # string order is not their number order
            ids = rng.integers(0, rng.integers(2, 13), n)
            if rng.integers(2):
                ids = np.sort(ids)
            m = fm(np.zeros((n, 1)), subjects=[f"S{3 * i + 1}" for i in ids.tolist()])
            if len(set(ids.tolist())) < 2:
                with pytest.raises(TooFewSubjects):
                    make_folds(CVStrategy("loso"), m)
                continue
            _assert_same_folds(make_folds(CVStrategy("loso"), m),
                               _make_folds_per_pass(CVStrategy("loso"), m))


# --- metrics ---

def test_accuracy_hand_example():
    out = metrics([0, 1, 1, 0], [0, 1, 0, 0])
    assert out["accuracy"] == 0.75


def test_f1_micro_equals_accuracy_multiclass():
    rng = np.random.default_rng(9)
    for _ in range(20):
        y_true = rng.integers(0, 4, 50)
        y_pred = rng.integers(0, 4, 50)
        out = metrics(y_true, y_pred)
        assert out["f1_micro"] == pytest.approx(out["accuracy"], abs=1e-12)


def test_perfect_scores_auc_1():
    y = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    assert roc_auc(y, scores) == 1.0


def test_random_scores_auc_half():
    rng = np.random.default_rng(10)
    y = rng.integers(0, 2, 2000)
    scores = rng.uniform(0, 1, 2000)
    assert roc_auc(y, scores) == pytest.approx(0.5, abs=0.05)


def test_auc_monotone_invariance():
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, 200)
    y[:2] = [0, 1]
    s = rng.uniform(0, 1, 200)
    base = roc_auc(y, s)
    for transform in (lambda v: 3 * v + 1, np.exp, lambda v: v ** 3):
        assert roc_auc(y, transform(s)) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("n_scores", [3, 1, 7])
def test_roc_auc_rejects_scores_of_another_length(n_scores):
    # one score would broadcast against every label without the check
    with pytest.raises(LengthMismatch):
        roc_auc([1, 0, 1, 0, 1, 0], np.linspace(0, 1, n_scores))
    with pytest.raises(LengthMismatch):
        roc_auc([1, 0, 1, 0, 1, 0], np.zeros((n_scores, 2)))


def test_roc_auc_is_nan_when_a_score_is_nan():
    # scored rows alone give 0.75; counting the NaN rows in the
    # denominators would give 0.333
    assert np.isnan(roc_auc([1, 1, 0, 1, 0, 0], [0.9, np.nan, 0.1, 0.4, np.nan, 0.7]))
    assert np.isnan(roc_auc([1, 0, 1, 0], np.array([[0.1, 0.9], [0.5, np.nan],
                                                   [0.6, 0.4], [0.2, 0.8]])))
    assert roc_auc([1, 1, 0, 0], [0.9, 0.4, 0.1, 0.7]) == 0.75


def _roc_auc_by_thresholds(y_true, scores, positive=1):
    """The area of :func:`roc_auc` as a loop over thresholds, each distinct
    score from the highest down, counting the rows at or above it."""
    y = np.asarray(y_true) == positive
    s = np.asarray(scores, dtype=float)
    if s.ndim == 2:
        s = s[:, -1]
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    tpr, fpr = [0.0], [0.0]
    for thr in np.unique(s)[::-1]:
        hit = s >= thr
        tpr.append(np.sum(hit & y) / n_pos)
        fpr.append(np.sum(hit & ~y) / n_neg)
    return float(np.trapezoid(tpr, fpr))


def test_roc_auc_matches_the_threshold_loop_bit_for_bit():
    # few distinct values, so ties everywhere; signed zeros; score columns;
    # one distinct score
    rng = np.random.default_rng(25)
    for draw in range(2000):
        n = int(rng.integers(2, 60))
        y = rng.integers(0, 2, n)
        y[:2] = [0, 1]
        y = rng.permutation(y) * 3 + 2  # labels 2 and 5, positive 5
        s = rng.integers(-3, 4, n) / float(rng.choice([1, 3, 7]))
        if draw % 4 == 1:
            s = np.where(s == 0, rng.choice([-0.0, 0.0], n), s)
        elif draw % 4 == 2:
            s = np.full(n, s[0])
        elif draw % 4 == 3:
            s = rng.uniform(0, 1, n)
        if draw % 2:
            s = np.column_stack([1 - s, s])
        got, want = roc_auc(y, s, positive=5), _roc_auc_by_thresholds(y, s, positive=5)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_metrics_length_mismatch():
    with pytest.raises(LengthMismatch):
        metrics([0, 1], [0])


def test_auc_undefined_single_class():
    with pytest.raises(AUCUndefined):
        roc_auc([1, 1, 1], [0.1, 0.5, 0.9])


def test_f1_macro_hand_example():
    # class 0: tp=2 fp=1 fn=0 -> f1 = 4/5; class 1: tp=1 fp=0 fn=1 -> f1 = 2/3
    out = metrics([0, 0, 1, 1], [0, 0, 0, 1])
    assert out["f1_macro"] == pytest.approx((4 / 5 + 2 / 3) / 2, rel=1e-12)


def _metrics_by_counts(y_true, y_pred, classes=None):
    """accuracy, micro F1 and macro F1 of :func:`metrics` from each class's
    tp, fp and fn counts and their running totals."""
    y_true, y_pred = np.asarray(y_true, dtype=int), np.asarray(y_pred, dtype=int)
    if classes is None:
        classes = np.unique(np.concatenate([y_true, y_pred]))
    else:
        classes = np.asarray(sorted(classes))
    tp_total = fp_total = fn_total = 0
    per_class_f1 = []
    for c in classes:
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        tp_total, fp_total, fn_total = tp_total + tp, fp_total + fp, fn_total + fn
        denom = 2 * tp + fp + fn
        per_class_f1.append(2 * tp / denom if denom else 0.0)
    micro_denom = 2 * tp_total + fp_total + fn_total
    return {"accuracy": float(np.mean(y_true == y_pred)),
            "f1_micro": 2 * tp_total / micro_denom if micro_denom else 0.0,
            "f1_macro": float(np.mean(per_class_f1))}


def test_metrics_equal_the_tp_fp_fn_counts_bit_for_bit():
    rng = np.random.default_rng(32)
    for draw in range(600):
        n_classes = 2 if draw % 2 else 3
        n = int(rng.integers(1, 40))
        y_true = rng.integers(0, n_classes, n)
        y_pred = rng.integers(0, n_classes, n)
        # a class list that holds every label, and one with a class no row holds
        for classes in (None, range(n_classes), [*range(n_classes), 7]):
            got = metrics(y_true, y_pred, classes=classes)
            want = _metrics_by_counts(y_true, y_pred, classes)
            assert list(got) == list(want)
            for key in want:
                assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), key


# --- cross_validate ---

def _separable(n_per=20, seed=12):
    rng = np.random.default_rng(seed)
    a = rng.normal([0, 0], 0.3, (n_per, 2))
    b = rng.normal([8, 8], 0.3, (n_per, 2))
    X = np.vstack([a, b])
    y = [0] * n_per + [1] * n_per
    subjects = [f"S{i % 4}" for i in range(2 * n_per)]
    return fm(X, subjects=subjects), lv(y)


def test_cv_separable_all_models_perfect():
    m, labels = _separable()
    report = cross_validate([KNN(3), TREE, LDA, LOGIT], m, labels,
                            CVStrategy("kfold", folds=5))
    for name, folds in report.per_model.items():
        for fold in folds:
            assert fold.metrics["accuracy"] == 1.0, name


def test_cv_shuffled_labels_at_chance():
    rng = np.random.default_rng(13)
    X = rng.normal(0, 1, (200, 4))
    y = np.array([0, 1] * 100)
    rng.shuffle(y)
    report = cross_validate([KNN(5)], fm(X), lv(y),
                            CVStrategy("kfold", folds=5))
    mean_acc = report.aggregate("knn5")["accuracy"][0]
    assert mean_acc == pytest.approx(0.5, abs=0.1)


def test_cv_loso_no_subject_leakage():
    m, labels = _separable()
    report = cross_validate([KNN(3)], m, labels, CVStrategy("loso"))
    folds = report.per_model["knn3"]
    assert len(folds) == 4
    for fold in folds:
        train_subjects = set(m.subject_ids[fold.train].tolist())
        test_subjects = set(m.subject_ids[fold.test].tolist())
        assert len(test_subjects) == 1
        assert train_subjects.isdisjoint(test_subjects)
        assert fold.model.columns == m.columns


@pytest.mark.parametrize("strategy", [CVStrategy("loso"), CVStrategy("kfold", 3)])
def test_cv_tests_every_row_exactly_once(strategy):
    m, labels = _separable()
    report = cross_validate([KNN(3), TREE], m, labels, strategy, seed=5)
    for folds in report.per_model.values():
        np.testing.assert_array_equal(
            np.sort(np.concatenate([fold.test for fold in folds])), np.arange(len(m)))
        for fold in folds:
            np.testing.assert_array_equal(
                np.union1d(fold.train, fold.test), np.arange(len(m)))
            assert np.intersect1d(fold.train, fold.test).size == 0


def test_cv_fold_lacking_a_class_scores_it_zero():
    # one row of class 2: the fold that tests it trains without class 2
    y = [0, 1] * 14 + [2, 0]
    X = np.random.default_rng(4).normal(0.0, 1.0, (30, 2)) + np.asarray(y)[:, None]
    labels = lv(y)
    report = cross_validate([KNN(3)], fm(X), labels, CVStrategy("kfold", 5))
    folds = report.per_model["knn3"]
    assert any(fold.model.classes.tolist() == [0, 1] for fold in folds)
    for fold in folds:
        assert fold.scores.shape == (fold.test.size, 3)
        if 2 not in fold.model.classes:
            assert np.all(fold.scores[:, 2] == 0.0)
    scores = report.in_row_order("knn3", "scores")
    assert scores.shape == (30, 3)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0)
    y_pred = report.in_row_order("knn3", "y_pred")
    for fold in folds:
        np.testing.assert_array_equal(y_pred[fold.test], fold.y_pred)


def test_cv_deterministic():
    m, labels = _separable(seed=14)
    strat = CVStrategy("kfold", folds=4)
    specs = [KNN(3), LOGIT]
    a = cross_validate(specs, m, labels, strat, seed=3)
    b = cross_validate(specs, m, labels, strat, seed=3)
    assert a.to_records() == b.to_records()


def test_cv_report_records_shape():
    m, labels = _separable()
    report = cross_validate([KNN(3)], m, labels,
                            CVStrategy("kfold", folds=5))
    records = report.to_records()
    models = {r[0] for r in records}
    assert models == {"knn3"}
    folds = {r[1] for r in records}
    assert folds == {"0", "1", "2", "3", "4", "mean", "std"}
    # binary task with scores: AUC present
    assert any(r[2] == "auc" for r in records)


class _MajorityNoScores:
    def fit(self, X, y):
        vals, counts = np.unique(y, return_counts=True)
        self.label = int(vals[np.argmax(counts)])

    def predict(self, X):
        return np.full(X.shape[0], self.label)


def test_cv_one_class_test_folds_score_without_auc():
    # S1 holds class 0 only and S4 class 1 only: their LOSO folds have no
    # AUC; every fold's metrics are those of scoring it with its scores,
    # or without them where both classes are not among its test rows
    rng = np.random.default_rng(33)
    subjects = ["S1"] * 6 + ["S2"] * 8 + ["S3"] * 7 + ["S4"] * 5
    y = np.array([0] * 6 + [0, 1] * 4 + [1, 0, 1, 0, 1, 0, 0] + [1] * 5)
    X = rng.normal(0.0, 1.0, (y.size, 2)) + y[:, None]
    maj = ClassifierSpec("maj", "custom", {"handle": _MajorityNoScores()})
    report = cross_validate([KNN(3), LDA, maj], fm(X, subjects=subjects), lv(y),
                            CVStrategy("loso"))
    classes = np.unique(y)
    one_class = 0
    for name, folds in report.per_model.items():
        for fold in folds:
            try:
                want = metrics(y[fold.test], fold.y_pred, fold.scores, classes=classes)
            except AUCUndefined:
                want = metrics(y[fold.test], fold.y_pred, None, classes=classes)
                one_class += 1
            assert list(fold.metrics) == list(want), name
            for key in want:
                assert (np.float64(fold.metrics[key]).tobytes()
                        == np.float64(want[key]).tobytes()), (name, key)
        assert ("auc" in report.aggregate(name)) == (name != "maj")
    assert one_class == 4  # S1's and S4's folds for KNN and LDA
