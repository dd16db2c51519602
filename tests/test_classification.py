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
    want = np.array([classification._entropy(row.astype(float)) for row in counts])
    assert classification._entropies(counts).tobytes() == want.tobytes()


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
    """The original per-query KNN scorer, kept as the bit-exact reference."""
    train, y, k = model.state["X"], model.state["y"], model.state["k"]
    k = min(k, train.shape[0])
    scores = np.zeros((X.shape[0], model.classes.size))
    class_pos = {c: i for i, c in enumerate(model.classes)}
    for i, q in enumerate(X):
        d = np.sqrt(np.sum((train - q) ** 2, axis=1))
        order = np.lexsort((np.arange(d.size), d))[:k]
        for j in order:
            scores[i, class_pos[y[j]]] += 1.0 / k
    return scores


@pytest.mark.parametrize("p", range(1, 13))  # numpy's row sum turns pairwise at 8
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
    mu, sigma = X.mean(axis=0), X.std(axis=0)
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
    report, _ = cross_validate([KNN(3), TREE, LDA, LOGIT], m, labels,
                               CVStrategy("kfold", folds=5))
    for name, entry in report.per_model.items():
        for fold in entry["folds"]:
            assert fold["accuracy"] == 1.0, name


def test_cv_shuffled_labels_at_chance():
    rng = np.random.default_rng(13)
    X = rng.normal(0, 1, (200, 4))
    y = np.array([0, 1] * 100)
    rng.shuffle(y)
    report, _ = cross_validate([KNN(5)], fm(X), lv(y),
                               CVStrategy("kfold", folds=5))
    mean_acc = report.per_model["knn5"]["aggregate"]["accuracy"][0]
    assert mean_acc == pytest.approx(0.5, abs=0.1)


def test_cv_loso_no_subject_leakage():
    m, labels = _separable()
    report, artifacts = cross_validate([KNN(3)], m, labels, CVStrategy("loso"))
    assert len(report.per_model["knn3"]["folds"]) == 4
    assert artifacts["y_true"].size == len(m)
    assert all(model.columns == m.columns
               for model in artifacts["fitted_models"]["knn3"])


def test_cv_deterministic():
    m, labels = _separable(seed=14)
    strat = CVStrategy("kfold", folds=4)
    specs = [KNN(3), LOGIT]
    a, _ = cross_validate(specs, m, labels, strat, seed=3)
    b, _ = cross_validate(specs, m, labels, strat, seed=3)
    assert a.to_records() == b.to_records()


def test_cv_report_records_shape():
    m, labels = _separable()
    report, _ = cross_validate([KNN(3)], m, labels,
                               CVStrategy("kfold", folds=5))
    records = report.to_records()
    models = {r[0] for r in records}
    assert models == {"knn3"}
    folds = {r[1] for r in records}
    assert folds == {"0", "1", "2", "3", "4", "mean", "std"}
    # binary task with scores: AUC present
    assert any(r[2] == "auc" for r in records)
