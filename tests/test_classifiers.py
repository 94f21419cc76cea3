import collections
import hashlib
import itertools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rlselect import classifiers
from rlselect.classifiers import (
    ClassifierKind,
    FitError,
    _child_impurity,
    _tree_rng,
    _unique_rows,
    _vec_gini,
    accuracy,
    cv_accuracy,
    fit,
    holdout_accuracy,
    predict,
)
from rlselect.dataset import SplitKind, SyntheticSpec, generate_synthetic, stratified_split

from conftest import matrix_from_rows

PINNED_FOREST = Path(__file__).parent / "pinned" / "forest.json"


def all_depth2_trees():
    """Every axis-aligned binary tree of depth <= 2 over two binary features.

    A tree is a nested tuple (feature, left, right) with integer leaves;
    used as the exhaustive oracle for small-instance optimality.
    """
    leaves = [0, 1]
    children = list(leaves)
    for g in (0, 1):
        for l0 in leaves:
            for l1 in leaves:
                children.append((g, l0, l1))
    trees = list(leaves)
    for f in (0, 1):
        for left in children:
            for right in children:
                trees.append((f, left, right))
    return trees


def eval_tree(tree, row):
    while isinstance(tree, tuple):
        f, left, right = tree
        tree = right if row[f] == 1 else left
    return tree


def best_depth2_accuracy(X, y):
    best = 0.0
    for tree in all_depth2_trees():
        acc = np.mean([eval_tree(tree, row) == label for row, label in zip(X, y)])
        best = max(best, float(acc))
    return best


class TestGini:
    def test_balanced(self):
        assert _vec_gini(np.array([2.0]), np.array([2.0])).tolist() == [0.5]

    def test_pure(self):
        assert _vec_gini(np.array([0.0, 1.0]), np.array([3.0, 0.0])).tolist() == [0.0, 0.0]


class TestDecisionTree:
    def test_separable_feature_gives_perfect_training_accuracy(self):
        m = generate_synthetic(SyntheticSpec(200, 4, (2,), q=1.0, seed=0))
        clf = fit(ClassifierKind.decision_tree(), m, seed=1)
        assert accuracy(clf, m) == 1.0

    def test_consistent_data_memorized(self):
        # no contradictory duplicate rows -> unbounded tree reaches accuracy 1
        rng = np.random.default_rng(3)
        X = np.unique(rng.integers(0, 2, size=(40, 6)), axis=0)
        y = rng.integers(0, 2, size=X.shape[0])
        if y.min() == y.max():
            y[0] = 1 - y[0]
        m = matrix_from_rows(X, y)
        clf = fit(ClassifierKind.decision_tree(), m, seed=0)
        assert accuracy(clf, m) == 1.0

    def test_xor_is_solved(self):
        m = matrix_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
        clf = fit(ClassifierKind.decision_tree(), m, seed=0)
        assert accuracy(clf, m) == 1.0

    def test_matches_exhaustive_small_tree_oracle(self):
        # brute-force enumeration of all depth-<=2 trees over 2 binary features
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(4, 17))
            X = rng.integers(0, 2, size=(n, 2))
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            m = matrix_from_rows(X, y)
            clf = fit(ClassifierKind.decision_tree(), m, seed=0)
            assert accuracy(clf, m) == best_depth2_accuracy(X, y)

    def test_single_class_rejected(self):
        m = matrix_from_rows([[0, 1], [1, 0]], [1, 1])
        with pytest.raises(FitError):
            fit(ClassifierKind.decision_tree(), m, seed=0)


class TestRandomForest:
    def test_single_tree_equals_tree_on_same_bootstrap(self):
        rng = np.random.default_rng(5)
        m = matrix_from_rows(rng.integers(0, 2, size=(12, 2)), rng.integers(0, 2, size=12))
        seed = 99
        rf = fit(ClassifierKind.random_forest(trees=1), m, seed=seed)
        # replay the forest's bootstrap draw for tree 0
        boot = _tree_rng(seed, 0).integers(0, m.n_samples, size=m.n_samples)
        dt = fit(ClassifierKind.decision_tree(), m.rows(boot), seed=0)
        assert table_trees(rf.model) == table_trees(dt.model)

    def test_forest_improves_over_noise_vote(self):
        m = generate_synthetic(SyntheticSpec(400, 10, (0, 1, 2), q=0.85, seed=8))
        clf = fit(ClassifierKind.random_forest(trees=25), m, seed=2)
        assert accuracy(clf, m) > 0.8

    def test_deterministic(self):
        m = generate_synthetic(SyntheticSpec(60, 5, (0,), q=0.9, seed=1))
        a = fit(ClassifierKind.random_forest(trees=5), m, seed=4)
        b = fit(ClassifierKind.random_forest(trees=5), m, seed=4)
        rows = m.X[:10]
        assert np.array_equal(predict(a, rows), predict(b, rows))

    def test_pinned_trees_and_cv_folds(self):
        assert forest_pin() == json.loads(PINNED_FOREST.read_text())


def table_trees(model) -> list:
    """The trees of a fitted node table as nested tuples ``(feature, left, right)`` with int leaves."""

    def read(node):
        feature, child = int(model.feature[node]), int(model.child[node])
        return int(model.label[node]) if feature < 0 else (feature, read(child), read(child + 1))

    return [read(root) for root in model.roots.tolist()]


def preorder(tree) -> str:
    """Preorder serialization of a tuple tree: ``f<feature>`` per split, ``L<label>`` per leaf."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            feature, left, right = node
            out.append(f"f{feature}")
            stack += [right, left]
        else:
            out.append(f"L{node}")
    return " ".join(out)


def forest_pin() -> dict:
    """What ``tests/pinned/forest.json`` holds: per-tree hashes of a 25-tree fit and its CV folds."""
    spec = SyntheticSpec(400, 24, (0, 5, 11, 17), q=0.8, seed=10)
    m = generate_synthetic(spec)
    rf = ClassifierKind.random_forest(trees=25)
    trees = table_trees(fit(rf, m, seed=7).model)
    _, per_fold = cv_accuracy(rf, m, stratified_split(m, SplitKind.kfold(5), seed=3), seed=7)
    return {
        "matrix": f"generate_synthetic({spec!r})",
        "fit": "random_forest(trees=25), seed 7; cv: kfold(5) split seed 3, cv seed 7",
        "tree_preorder_sha256": [hashlib.sha256(preorder(t).encode()).hexdigest() for t in trees],
        "cv_accuracy_per_fold": [repr(a) for a in per_fold],
    }


def reference_best_split(bitsf, w0, w1, idx, candidates=None):
    """Best CART split of the live patterns, or None for a leaf; ties to the lowest feature.

    ``candidates()`` is called once per impure node and returns its sorted
    candidate features; without it every feature is a candidate (the DT).
    """
    lw0, lw1 = w0[idx], w1[idx]
    tot0, tot1 = float(lw0.sum()), float(lw1.sum())
    if tot0 == 0.0 or tot1 == 0.0:
        return None, tot0, tot1
    cand = np.arange(bitsf.shape[1]) if candidates is None else candidates()
    sub = bitsf[np.ix_(idx, cand)]
    r0, r1 = lw0 @ sub, lw1 @ sub
    l0, l1 = tot0 - r0, tot1 - r1
    valid = ((l0 + l1) > 0) & ((r0 + r1) > 0)
    if not valid.any():
        return None, tot0, tot1
    return int(cand[np.argmin(_child_impurity(l0, l1, r0, r1, tot0 + tot1, valid))]), tot0, tot1


def reference_majority(tot0, tot1):
    """A leaf's label: the heavier class, an exact tie to benign."""
    return 1 if tot1 > tot0 else 0


def reference_patterns(X, y):
    """Distinct rows of X as float64 bits, with the float64 count of each label per row."""
    patterns, inverse = np.unique(X, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    w0 = np.bincount(inverse[y == 0], minlength=patterns.shape[0]).astype(np.float64)
    w1 = np.bincount(inverse[y == 1], minlength=patterns.shape[0]).astype(np.float64)
    return patterns.astype(np.float64), w0, w1


def reference_grow_tree(X, y):
    """Node-by-node DFS CART (left first) with every feature a candidate: the decision tree.

    The tree is a nested tuple ``(feature, left, right)`` with int leaves.
    """
    bitsf, w0, w1 = reference_patterns(X, y)

    def grow(live):
        feature, tot0, tot1 = reference_best_split(bitsf, w0, w1, live)
        if feature is None:
            return reference_majority(tot0, tot1)
        mask = bitsf[live, feature] == 1.0
        return (feature, grow(live[~mask]), grow(live[mask]))

    return grow(np.arange(bitsf.shape[0]))


def reference_bfs_tree(X, y, mtry, rng):
    """One forest tree on its bootstrap rows, grown node by node in level order (left first).

    Each impure node draws ``rng.random(N)`` when it is reached, and its
    candidates are the ``mtry`` features of smallest key; a pure node draws
    nothing. The tree is a nested tuple like ``reference_grow_tree``'s.
    """
    bitsf, w0, w1 = reference_patterns(X, y)

    def candidates():
        return np.sort(np.argsort(rng.random(bitsf.shape[1]), kind="stable")[:mtry])

    nodes, queue, n_ids = {}, collections.deque([(0, np.arange(bitsf.shape[0]))]), 1
    while queue:
        at, live = queue.popleft()
        feature, tot0, tot1 = reference_best_split(bitsf, w0, w1, live, candidates)
        if feature is None:
            nodes[at] = reference_majority(tot0, tot1)
            continue
        mask = bitsf[live, feature] == 1.0
        nodes[at] = (feature, n_ids, n_ids + 1)
        queue += [(n_ids, live[~mask]), (n_ids + 1, live[mask])]
        n_ids += 2

    def build(at):
        node = nodes[at]
        return node if isinstance(node, int) else (node[0], build(node[1]), build(node[2]))

    return build(0)


def reference_forest(m, n_trees, seed):
    """Reference random forest: tree by tree, each from its own ``_tree_rng``."""
    mtry = math.ceil(math.sqrt(m.n_features))
    trees = []
    for t in range(n_trees):
        rng = _tree_rng(seed, t)
        boot = rng.integers(0, m.n_samples, size=m.n_samples)
        trees.append(reference_bfs_tree(m.X[boot], m.y[boot], mtry, rng))
    return trees


def reference_vote(trees, rows):
    """Majority vote of the trees, row by row; an exact tie goes to benign."""
    votes = [sum(eval_tree(tree, row) for tree in trees) for row in rows]
    return [1 if 2 * v > len(trees) else 0 for v in votes]


def fresh_queries(data, m):
    """The fit rows of ``m`` and up to 20 drawn rows of its width."""
    fresh = data.draw(arrays(np.uint8, (data.draw(st.integers(0, 20)), m.n_features), elements=st.integers(0, 1)))
    return np.concatenate([m.X, fresh])


def assert_predicts_like_reference(clf, trees, queries):
    """``predict`` equals the row-by-row reference vote, for C- and Fortran-ordered rows."""
    expected = reference_vote(trees, queries)
    assert predict(clf, queries).tolist() == expected
    assert predict(clf, np.asfortranarray(queries)).tolist() == expected


@st.composite
def forest_matrices(draw):
    """A trainable matrix of width 1-30 and 2-80 rows drawn from a pattern pool.

    The bits come from a drawn numpy seed, so wide rows are varied. A small
    pool makes duplicate rows; some columns may be constant, and the
    malware class may hold a single pattern.
    """
    width, n = draw(st.integers(1, 30)), draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.integers(0, 2, size=(draw(st.integers(1, 40)), width), dtype=np.uint8)
    constant = rng.random(width) < draw(st.sampled_from([0.0, 0.3]))
    pool[:, constant] = rng.integers(0, 2, size=width, dtype=np.uint8)[constant]
    rows = pool[rng.integers(0, pool.shape[0], size=n)]
    y = rng.integers(0, 2, size=n, dtype=np.uint8)
    y[:2] = [0, 1]
    if draw(st.booleans()):
        rows[y == 1] = rows[1]
    return matrix_from_rows(rows, y)


class TestForestEqualsPerTreeReference:
    """The level-wise forest grows, tree for tree, the per-tree BFS reference forest."""

    @settings(max_examples=300, deadline=None)
    @given(forest_matrices(), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_trees_and_predictions(self, m, n_trees, seed, data):
        clf = fit(ClassifierKind.random_forest(trees=n_trees), m, seed)
        expected = reference_forest(m, n_trees, seed)
        assert table_trees(clf.model) == expected
        assert_predicts_like_reference(clf, expected, fresh_queries(data, m))

    def test_zero_width(self):
        m = matrix_from_rows(np.zeros((6, 0), dtype=np.uint8), [0, 1, 0, 1, 1, 0])
        clf = fit(ClassifierKind.random_forest(trees=4), m, 3)
        expected = reference_forest(m, 4, 3)
        assert table_trees(clf.model) == expected
        assert_predicts_like_reference(clf, expected, m.X)

    @settings(max_examples=100, deadline=None)
    @given(forest_matrices(), st.integers(0, 2**32 - 1))
    def test_no_tree_draws_from_another_trees_generator(self, m, seed):
        six = table_trees(fit(ClassifierKind.random_forest(trees=6), m, seed).model)
        three = table_trees(fit(ClassifierKind.random_forest(trees=3), m, seed).model)
        assert six[:3] == three


class TestTreeEqualsDfsReference:
    """The level-wise decision tree is, node for node, the DFS reference tree."""

    @settings(max_examples=300, deadline=None)
    @given(forest_matrices(), st.data())
    def test_trees(self, m, data):
        clf = fit(ClassifierKind.decision_tree(), m, 0)
        expected = [reference_grow_tree(m.X, m.y)]
        assert table_trees(clf.model) == expected
        assert_predicts_like_reference(clf, expected, fresh_queries(data, m))

    def test_zero_width(self):
        m = matrix_from_rows(np.zeros((6, 0), dtype=np.uint8), [0, 1, 0, 1, 1, 0])
        clf = fit(ClassifierKind.decision_tree(), m, 0)
        expected = [reference_grow_tree(m.X, m.y)]
        assert table_trees(clf.model) == expected
        assert_predicts_like_reference(clf, expected, m.X)


class TestChunkedLevels:
    """Scoring a level a few nodes at a time grows the trees that scoring it at once grows."""

    @settings(max_examples=150, deadline=None)
    @given(forest_matrices(), st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from([1, 40, 200]))
    def test_small_chunks(self, m, n_trees, seed, cells):
        half = np.arange(m.n_samples) % 2 == 0
        fit_part, score_part = m.rows(np.flatnonzero(half)), m.rows(np.flatnonzero(~half))
        dt = ClassifierKind.decision_tree()
        with mock.patch.object(classifiers, "_CHUNK_CELLS", cells):
            trees = table_trees(fit(dt, m, 0).model)
            forest = table_trees(fit(ClassifierKind.random_forest(trees=n_trees), m, seed).model)
            lazy = lazy_holdout(dt, fit_part, score_part)
        assert trees == [reference_grow_tree(m.X, m.y)]
        assert forest == reference_forest(m, n_trees, seed)
        assert lazy == eager_holdout(dt, fit_part, score_part)


def reference_knn_predict(X, y, k, rows):
    """Row-by-row kNN: one Hamming pass and one lexsort (distance, then row index) per scored row."""
    X = X.astype(np.int16)
    out = []
    for row in np.asarray(rows).astype(np.int16):
        d = np.count_nonzero(X != row, axis=1)
        nearest = np.lexsort((np.arange(d.size), d))[:k]
        out.append(1 if 2 * int(y[nearest].sum()) > k else 0)
    return out


class TestKnn:
    @settings(max_examples=200, deadline=None)
    @given(forest_matrices(), st.sampled_from([1, 3, 5, 7]), st.data())
    def test_equals_row_by_row_reference(self, m, k, data):
        queries = fresh_queries(data, m)
        clf = fit(ClassifierKind.knn(k=k), m, 0)
        assert predict(clf, queries).tolist() == reference_knn_predict(m.X, m.y, k, queries)

    @pytest.mark.parametrize("cells", [1, 100, 1000])
    def test_row_blocks_equal_reference(self, monkeypatch, cells):
        # a block of scored rows never splits a row; blocks of 1, 2 and 20 rows here
        monkeypatch.setattr(classifiers, "_KNN_CELLS", cells)
        m = generate_synthetic(SyntheticSpec(50, 6, (0, 1), q=0.8, seed=12))
        rows = np.random.default_rng(13).integers(0, 2, size=(37, 6), dtype=np.uint8)
        clf = fit(ClassifierKind.knn(k=5), m, seed=0)
        assert predict(clf, rows).tolist() == reference_knn_predict(m.X, m.y, 5, rows)

    def test_training_row_is_own_nearest_neighbor(self):
        rng = np.random.default_rng(6)
        X = np.unique(rng.integers(0, 2, size=(30, 5)), axis=0)
        y = rng.integers(0, 2, size=X.shape[0])
        if y.min() == y.max():
            y[0] = 1 - y[0]
        m = matrix_from_rows(X, y)
        clf = fit(ClassifierKind.knn(k=1), m, seed=0)
        assert accuracy(clf, m) == 1.0

    def test_distance_tie_prefers_lower_row_index(self):
        # both training rows are Hamming distance 1 from the query
        m = matrix_from_rows([[0, 0], [1, 1]], [0, 1])
        clf = fit(ClassifierKind.knn(k=1), m, seed=0)
        assert predict(clf, [[0, 1]]).tolist() == [0]

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            ClassifierKind.knn(k=2)


class TestLinearSvm:
    def test_separable(self):
        m = generate_synthetic(SyntheticSpec(300, 6, (1,), q=1.0, seed=2))
        clf = fit(ClassifierKind.linear_svm(), m, seed=1)
        assert accuracy(clf, m) >= 0.95
        # the subgradient schedule converges with a few more passes
        converged = fit(ClassifierKind.linear_svm(lam=1e-3, epochs=30), m, seed=1)
        assert accuracy(converged, m) == 1.0

    def test_deterministic_in_seed(self):
        m = generate_synthetic(SyntheticSpec(100, 5, (0,), q=0.8, seed=3))
        a = fit(ClassifierKind.linear_svm(), m, seed=7)
        b = fit(ClassifierKind.linear_svm(), m, seed=7)
        assert np.array_equal(a.model.w, b.model.w)
        assert a.model.b == b.model.b


class TestPredict:
    def test_empty_rows(self):
        m = matrix_from_rows([[0, 1], [1, 0]], [0, 1])
        clf = fit(ClassifierKind.decision_tree(), m, seed=0)
        assert predict(clf, np.zeros((0, 2), dtype=np.uint8)).size == 0

    def test_width_mismatch(self):
        m = matrix_from_rows([[0, 1], [1, 0]], [0, 1])
        clf = fit(ClassifierKind.decision_tree(), m, seed=0)
        with pytest.raises(ValueError):
            predict(clf, [[0, 1, 1]])

    @pytest.mark.parametrize("kind", [
        ClassifierKind.decision_tree(), ClassifierKind.random_forest(trees=3),
        ClassifierKind.knn(k=1), ClassifierKind.linear_svm(),
    ], ids=lambda kind: kind.name)
    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_non_binary_cell_rejected(self, kind, value):
        m = matrix_from_rows([[0, 1, 0], [1, 0, 1], [1, 1, 0], [0, 0, 1]], [0, 1, 1, 0])
        clf = fit(kind, m, seed=0)
        with pytest.raises(ValueError, match="only 0 and 1"):
            predict(clf, [[value, 0, 0]])


class TestAccuracy:
    def test_counts_correct_fraction(self):
        m = matrix_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
        clf = fit(ClassifierKind.decision_tree(), m, seed=0)
        quarter = matrix_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 1])
        assert accuracy(clf, quarter) == 0.75

    def test_empty_matrix_rejected(self):
        m = matrix_from_rows([[0, 1], [1, 0]], [0, 1])
        clf = fit(ClassifierKind.decision_tree(), m, seed=0)
        empty = matrix_from_rows(np.zeros((0, 2), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        with pytest.raises(ValueError):
            accuracy(clf, empty)


class TestCvAccuracy:
    def test_separable_every_fold(self):
        m = generate_synthetic(SyntheticSpec(300, 4, (0,), q=1.0, seed=4))
        plan = stratified_split(m, SplitKind.kfold(10), seed=1)
        mean, per_fold = cv_accuracy(ClassifierKind.decision_tree(), m, plan, seed=0)
        assert mean == 1.0
        assert per_fold == [1.0] * 10

    def test_constant_features_fall_back_to_fold_majority(self):
        # oracle: recompute per-fold accuracy from the out-of-fold majority label
        rng = np.random.default_rng(9)
        y = (rng.random(100) < 0.7).astype(np.uint8)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        m = matrix_from_rows(np.ones((100, 3), dtype=np.uint8), y)
        plan = stratified_split(m, SplitKind.kfold(5), seed=2)
        mean, per_fold = cv_accuracy(ClassifierKind.decision_tree(), m, plan, seed=0)
        expected = []
        for fit_idx, eval_idx in plan.folds():
            ones = int(m.y[fit_idx].sum())
            majority = 1 if ones > fit_idx.size - ones else 0
            expected.append(float(np.mean(m.y[eval_idx] == majority)))
        assert per_fold == pytest.approx(expected)
        assert mean == pytest.approx(float(np.mean(expected)))

    def test_mean_is_arithmetic_average(self):
        m = generate_synthetic(SyntheticSpec(120, 5, (0,), q=0.8, seed=6))
        plan = stratified_split(m, SplitKind.kfold(4), seed=3)
        mean, per_fold = cv_accuracy(ClassifierKind.knn(k=3), m, plan, seed=0)
        assert mean == pytest.approx(float(np.mean(per_fold)))


def eager_holdout(kind, fit_part, score_part, seed=0):
    """Reference DT reward: the DFS reference tree scored row by row; the FitError of ``fit`` is returned as its text."""
    try:
        fit(kind, fit_part, seed)
    except FitError as exc:
        return f"FitError: {exc}"
    return reference_accuracy(reference_grow_tree(fit_part.X, fit_part.y), score_part)


def reference_accuracy(tree, matrix):
    """Fraction of the rows of ``matrix`` that ``tree`` labels right, walked row by row."""
    return float(np.mean(np.array([eval_tree(tree, row) for row in matrix.X]) == matrix.y))


def lazy_holdout(kind, fit_part, score_part, seed=0):
    try:
        return holdout_accuracy(kind, fit_part, score_part, seed)
    except FitError as exc:
        return f"FitError: {exc}"


@st.composite
def holdout_parts(draw, widths=st.integers(1, 12)):
    """(fit part, score part) of one width, rows drawn from a small pattern pool.

    A small pool makes duplicate rows, tied label weights, and score patterns
    both seen and unseen in the fit part; the labels may leave one class out.
    """
    width = draw(widths)
    pool = draw(arrays(np.uint8, (draw(st.integers(1, 10)), width), elements=st.integers(0, 1)))

    def part(max_rows):
        n = draw(st.integers(1, max_rows))
        rows = pool[draw(arrays(np.intp, n, elements=st.integers(0, pool.shape[0] - 1)))]
        return matrix_from_rows(rows, draw(arrays(np.uint8, n, elements=st.integers(0, 1))))

    return part(30), part(15)


class TestHoldoutAccuracy:
    """The lazy decision-tree reward equals eager fit + accuracy, exactly."""

    dt = ClassifierKind.decision_tree()

    @settings(max_examples=300, deadline=None)
    @given(holdout_parts())
    def test_dt_equals_eager_fit_and_accuracy(self, parts):
        assert lazy_holdout(self.dt, *parts) == eager_holdout(self.dt, *parts)

    @settings(max_examples=60, deadline=None)
    @given(holdout_parts(widths=st.integers(65, 80)))
    def test_dt_equals_eager_on_multi_byte_patterns(self, parts):
        assert lazy_holdout(self.dt, *parts) == eager_holdout(self.dt, *parts)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 80).flatmap(
        lambda w: arrays(np.uint8, st.tuples(st.integers(1, 30), st.just(w)), elements=st.integers(0, 1))
    ))
    def test_packed_unique_rows_equal_numpy_unique(self, X):
        patterns, inverse = np.unique(X, axis=0, return_inverse=True)
        for rows in (X, np.asfortranarray(X)):
            packed_patterns, packed_inverse = _unique_rows(rows)
            assert np.array_equal(packed_patterns, patterns)
            assert np.array_equal(packed_inverse, inverse.ravel())

    @pytest.mark.parametrize("seen", ["all", "none"])
    def test_scored_patterns_all_or_none_seen(self, seen):
        rng = np.random.default_rng(4)
        X = np.unique(rng.integers(0, 2, size=(80, 7)), axis=0)
        fit_rows = X[: X.shape[0] // 2]
        score_rows = fit_rows if seen == "all" else X[X.shape[0] // 2:]
        fit_part = matrix_from_rows(fit_rows, rng.integers(0, 2, size=fit_rows.shape[0]))
        score_part = matrix_from_rows(score_rows, rng.integers(0, 2, size=score_rows.shape[0]))
        assert lazy_holdout(self.dt, fit_part, score_part) == eager_holdout(self.dt, fit_part, score_part)

    def test_single_pattern_fit_part(self):
        fit_part = matrix_from_rows([[1, 0, 1]] * 5, [0, 1, 1, 0, 1])
        score_part = matrix_from_rows([[1, 0, 1], [0, 0, 0], [1, 1, 1]], [1, 0, 1])
        assert holdout_accuracy(self.dt, fit_part, score_part, 0) == eager_holdout(self.dt, fit_part, score_part)

    @pytest.mark.parametrize("rows, labels", [
        ([[0, 1], [1, 0]], [1, 1]),
        ([[0, 1], [1, 1]], [0, 0]),
        (np.zeros((0, 2), dtype=np.uint8), np.zeros(0, dtype=np.uint8)),
    ])
    def test_untrainable_fit_part_raises_like_fit(self, rows, labels):
        fit_part = matrix_from_rows(rows, labels)
        score_part = matrix_from_rows([[0, 1]], [1])
        expected = eager_holdout(self.dt, fit_part, score_part)
        assert expected.startswith("FitError: ")
        with pytest.raises(FitError) as info:
            holdout_accuracy(self.dt, fit_part, score_part, 0)
        assert f"FitError: {info.value}" == expected

    def test_cv_folds_equal_eager_fit_and_accuracy(self):
        m = generate_synthetic(SyntheticSpec(300, 9, (0, 3, 5), q=0.7, seed=11))
        plan = stratified_split(m, SplitKind.kfold(5), seed=2)
        _, per_fold = cv_accuracy(self.dt, m, plan, seed=3)
        expected = [
            reference_accuracy(reference_grow_tree(m.X[fit_idx], m.y[fit_idx]), m.rows(eval_idx))
            for fit_idx, eval_idx in plan.folds()
        ]
        assert per_fold == expected


class TestKindValidation:
    @pytest.mark.parametrize("bad", [
        lambda: ClassifierKind.random_forest(trees=0),
        lambda: ClassifierKind.linear_svm(lam=0.0),
        lambda: ClassifierKind.linear_svm(epochs=0),
        lambda: ClassifierKind("mystery"),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


if __name__ == "__main__":
    # Rewrites the forest pin; run with the package on PYTHONPATH.
    PINNED_FOREST.write_text(json.dumps(forest_pin(), indent=1) + "\n")
