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
    _decode,
    _draw_candidates,
    _fit_svm,
    _grow_levels,
    _lazy_tree_predict,
    _set_patterns,
    _tree_rng,
    _unique_rows,
    _vec_gini,
    accuracy,
    cv_accuracy,
    fit,
    holdout_accuracy,
    predict,
)
from rlselect.dataset import (
    SplitKind, SplitPlan, SyntheticSpec, generate_synthetic, load_csv, project, stratified_split,
)

from conftest import matrix_from_rows

PINNED = Path(__file__).parent / "pinned"
PINNED_FOREST = PINNED / "forest.json"
PINNED_SVM = PINNED / "svm.json"


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


def svm_pin() -> dict:
    """What ``tests/pinned/svm.json`` holds: the exact weights of an SVM fit of the pinned corpus and its CV folds."""
    m = load_csv(PINNED / "corpus.csv")
    svm = ClassifierKind.linear_svm()
    model = fit(svm, m, seed=7).model
    _, per_fold = cv_accuracy(svm, m, stratified_split(m, SplitKind.kfold(4), seed=3), seed=7)
    return {
        "matrix": "load_csv(tests/pinned/corpus.csv)",
        "fit": "linear_svm(), seed 7; cv: kfold(4) split seed 3, cv seed 7",
        "w_hex": [float(v).hex() for v in model.w],
        "b_hex": float(model.b).hex(),
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


class TestStackedCandidateDraw:
    """One partition of every tree's stacked keys draws what one partition per tree draws."""

    @staticmethod
    def per_tree(rngs, counts, width):
        mtry = math.ceil(math.sqrt(width))
        return np.concatenate([
            np.sort(np.argpartition(rng.random((k, width)), mtry - 1, axis=1)[:, :mtry], axis=1)
            for rng, k in zip(rngs, counts) if k
        ])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(any), st.integers(1, 60),
           st.integers(0, 2**32 - 1))
    def test_equals_one_draw_per_tree(self, counts, width, seed):
        trees = np.repeat(np.arange(len(counts)), counts)
        stacked = [_tree_rng(seed, t) for t in range(len(counts))]
        alone = [_tree_rng(seed, t) for t in range(len(counts))]
        got = _draw_candidates(stacked, trees, width)
        assert np.array_equal(got, self.per_tree(alone, counts, width))
        # every generator is left where its own draws leave it
        assert [r.bit_generator.state for r in stacked] == [r.bit_generator.state for r in alone]


def reference_fit_svm(X, y, lam, epochs, seed):
    """The SVM's subgradient loop written on arrays: each step indexes the float64 rows and labels."""
    rng = np.random.default_rng(seed)
    Xf = X.astype(np.float64)
    ypm = (2.0 * y - 1.0).astype(np.float64)
    n = Xf.shape[0]
    w = np.zeros(Xf.shape[1])
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = ypm[i] * (Xf[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * ypm[i] * Xf[i]
                b += eta * ypm[i]
    return w, b


class TestSvmEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(forest_matrices(), st.sampled_from([1e-4, 1e-3, 0.05, 1.0]), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_weights_and_bias_bit_for_bit(self, m, lam, epochs, seed):
        model = _fit_svm(m.X, m.y, lam, epochs, seed)
        w, b = reference_fit_svm(m.X, m.y, lam, epochs, seed)
        assert model.w.tobytes() == w.tobytes()
        assert float(model.b).hex() == float(b).hex()


class TestDecode:
    def test_equals_the_shift_form(self):
        rng = np.random.default_rng(3)
        for width in range(1, 54):
            # codes with bits above the width too, as the set index sits there
            codes = np.concatenate([[0, 2**width - 1], rng.integers(0, 2**53, size=200)]).astype(np.int64)
            expected = ((codes[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
            got = _decode(codes, width)
            assert np.array_equal(got, expected), width
            assert got.dtype == np.uint8 and got.flags.c_contiguous

    def test_no_codes_or_no_width(self):
        assert _decode(np.zeros(0, dtype=np.int64), 10).shape == (0, 10)
        assert _decode(np.arange(3, dtype=np.int64), 0).shape == (3, 0)


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


class TestManyTreeQueries:
    """Queries of many trees, grown in one pass, get the leaf labels that one grow per tree gives them."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_one_pass_equals_one_grow_per_tree(self, width, n_trees, seed):
        rng = np.random.default_rng(seed)
        patterns = np.unique(rng.integers(0, 2, size=(16, width), dtype=np.uint8), axis=0)
        trees = []
        for _ in range(n_trees):
            pid = np.flatnonzero(rng.random(patterns.shape[0]) < 0.7)
            pid = pid if pid.size else np.arange(1)
            w0, w1 = rng.integers(0, 4, size=(2, pid.size))
            w1[w0 + w1 == 0] = 1  # every entry has a nonzero total
            queries = rng.integers(0, 2, size=(int(rng.integers(0, 6)), width), dtype=np.uint8)  # a tree may have none
            trees.append((pid, w0, w1, queries))
        per_tree = [
            _grow_levels(patterns, pid, w0, w1, np.zeros(pid.size, dtype=np.intp),
                         queries=(q, np.zeros(q.shape[0], dtype=np.intp)))[0]
            for pid, w0, w1, q in trees
        ]
        pid, w0, w1, queries = (np.concatenate(a) for a in zip(*trees))
        root = np.repeat(np.arange(n_trees), [t[0].size for t in trees])
        q_root = np.repeat(np.arange(n_trees), [t[3].shape[0] for t in trees])
        one_pass = _grow_levels(patterns, pid, w0, w1, root, queries=(queries, q_root))[0]
        assert one_pass.tolist() == np.concatenate(per_tree).tolist()


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

    def test_pinned_weights_and_cv_folds(self):
        assert svm_pin() == json.loads(PINNED_SVM.read_text())


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


def fold_by_fold(kind, m, plan, seed):
    """The per-fold ``holdout_accuracy`` values of ``plan``, or the exception the first failing fold raises."""
    per_fold = []
    for fold, (fit_idx, eval_idx) in enumerate(plan.folds()):
        try:
            per_fold.append(holdout_accuracy(kind, m.rows(fit_idx), m.rows(eval_idx), seed + fold))
        except FitError as exc:
            return FitError(f"fold {fold}: {exc}")
        except ValueError as exc:
            return exc
    return per_fold


class TestCvFoldsEqualHoldout:
    """Each fold equals its own holdout; the decision tree's folds grow together, and all kinds check every fold first."""

    dt = ClassifierKind.decision_tree()

    def assert_equals_fold_by_fold(self, m, plan, seed, kind=dt):
        expected = fold_by_fold(kind, m, plan, seed)
        if isinstance(expected, Exception):
            with pytest.raises(ValueError) as info:
                cv_accuracy(kind, m, plan, seed)
            assert type(info.value) is type(expected) and str(info.value) == str(expected)
            return
        mean, per_fold = cv_accuracy(kind, m, plan, seed)
        assert per_fold == expected
        assert mean == float(np.mean(expected))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(2, 10), st.integers(1, 60), st.integers(0, 7), st.integers(0, 2**31 - 1))
    def test_folds_equal_holdout_accuracy(self, data, k, n, width, seed):
        X = data.draw(arrays(np.uint8, (n, width), elements=st.integers(0, 1)))
        y = data.draw(arrays(np.uint8, n, elements=st.integers(0, 1)))
        assignments = data.draw(arrays(np.intp, n, elements=st.integers(0, k - 1)))
        self.assert_equals_fold_by_fold(matrix_from_rows(X, y), SplitPlan(SplitKind.kfold(k), assignments, 0), seed)

    @pytest.mark.parametrize("assignments, error", [
        ([0, 1, 0, 1, 2, 2, 2, 2], "fold 2: matrix contains a single class"),  # fold 2 holds every malware row
        ([1, 1, 1, 1, 0, 2, 0, 2], "fold 1: matrix contains a single class"),  # fold 1 holds every benign row
        ([0] * 8, "fold 0: cannot fit on an empty matrix"),
        ([0, 1, 0, 1, 0, 1, 0, 1], "accuracy of an empty matrix"),  # fold 2 scores no rows
    ])
    @pytest.mark.parametrize("kind", [
        ClassifierKind.decision_tree(), ClassifierKind.random_forest(trees=3),
        ClassifierKind.knn(k=3), ClassifierKind.linear_svm(epochs=2),
    ], ids=lambda kind: kind.name)
    def test_fold_errors_equal_holdout_accuracy(self, kind, assignments, error):
        m = matrix_from_rows(np.eye(8, 3, dtype=np.uint8), [0, 0, 0, 0, 1, 1, 1, 1])
        plan = SplitPlan(SplitKind.kfold(3), assignments, 0)
        assert str(fold_by_fold(kind, m, plan, 0)).startswith(error)
        self.assert_equals_fold_by_fold(m, plan, 0, kind)


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
        self.check_unique_rows(X)

    @pytest.mark.parametrize("shape", [
        *[(12, width) for width in (0, 1, 8, 9, 52, 53, 54, 63, 64, 65, 72)], (300, 8), (0, 0), (0, 10), (0, 72),
    ], ids=lambda shape: "x".join(map(str, shape)))
    def test_packed_unique_rows_at_the_word_boundary(self, shape):
        # up to 53 features a row is one float64-built code, deduped densely when
        # 2**width is at most the rows (widths 0 and 1, and 8 over 300 rows),
        # else sorted; above 53 its packed bytes
        X = np.random.default_rng(shape[1]).integers(0, 2, size=shape, dtype=np.uint8)
        if shape[0] and shape[1]:
            X[1:4] = X[0]
            X[1, -1] ^= 1  # differs from row 0 in the last feature only
            X[2, 0] ^= 1  # in the first only; row 3 repeats row 0
        self.check_unique_rows(X)

    @pytest.mark.parametrize("width", [0, 1, 8, 44, 45, 48, 49, 51, 52, 53, 54, 56, 57, 63, 64, 65, 72])
    @pytest.mark.parametrize("n_sets", [1, 3, 300])
    def test_set_patterns_equal_numpy_unique_with_the_set_first(self, width, n_sets):
        # the set's bits above the row's in one code up to 53 bits in all (0, 2 or
        # 9 set bits here), else one or two key bytes in front of the packed row;
        # a narrower set is padded with -1, read as zero bits
        rng = np.random.default_rng(width)
        table = rng.integers(0, 2, size=(40, width + 3), dtype=np.uint8)
        table[20:] = table[:20]
        cols = np.full((n_sets, width), -1, dtype=np.intp)
        for s in range(n_sets):
            n = width if s == 0 else int(rng.integers(0, width + 1))
            cols[s, :n] = np.sort(rng.choice(width + 3, size=n, replace=False))
        padded = np.where(cols >= 0, table[:, cols], 0).reshape(table.shape[0] * n_sets, width)
        entry_set = np.tile(np.arange(n_sets), table.shape[0])
        patterns, inverse = np.unique(np.column_stack([entry_set, padded]), axis=0, return_inverse=True)
        got_patterns, got_inverse, got_set = _set_patterns(table, cols)
        assert np.array_equal(got_patterns, patterns[:, 1:])
        assert np.array_equal(got_inverse, inverse.ravel())
        assert np.array_equal(got_set, patterns[:, 0])

    @staticmethod
    def check_unique_rows(X):
        patterns, inverse = np.unique(X, axis=0, return_inverse=True)
        for rows in (X, np.asfortranarray(X)):
            packed_patterns, packed_inverse = _unique_rows(rows)
            assert np.array_equal(packed_patterns, patterns)
            assert np.array_equal(packed_inverse, inverse.ravel())

    @pytest.mark.parametrize("widths, n_rows, branch", [
        ((3, 1, 5), 60, "dense"),  # 3 sets x 2**5 codes for 3 x 60 entries
        ((0,), 8, "dense"),
        ((12, 4), 60, "sort"),
        ((52, 30), 40, "sort"),  # 1 set bit + 52 = 53 bits
        ((53,), 40, "sort"),
        ((53, 20), 40, "void"),  # 1 set bit + 53 = 54 bits
        ((52, 9, 3), 40, "void"),  # 2 set bits + 52
        ((70, 2), 40, "void"),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_each_dedupe_branch_equals_eager(self, widths, n_rows, branch):
        rng = np.random.default_rng(sum(widths) + n_rows)
        pool = rng.integers(0, 2, size=(12, 80), dtype=np.uint8)
        pool[6:, :40] = pool[:6, :40]  # patterns that agree on many columns
        fit_part, score_part = (
            matrix_from_rows(pool[rng.integers(0, 12, size=n)], np.arange(n) % 2) for n in (n_rows, n_rows // 2)
        )
        sets = [np.sort(rng.choice(80, size=w, replace=False)).tolist() for w in widths]
        with mock.patch.object(classifiers, "_dedupe", wraps=classifiers._dedupe) as spy:
            got = classifiers.holdout_accuracies(self.dt, fit_part, score_part, sets, 0)
        codes, *n_codes = spy.call_args_list[0].args  # the encoder's; the grower's follow
        taken = "void" if not n_codes else "dense" if n_codes[0] <= codes.size else "sort"
        assert taken == branch
        assert got == [eager_holdout(self.dt, project(fit_part, c), project(score_part, c)) for c in sets]

    def test_grower_dedupe_takes_both_branches_on_a_select_dt_pass(self):
        # 2000 x 100 planted matrix, one episode's ten nested sets: the first levels hold
        # fewer child codes than live queries (dense), the deep ones more (sort)
        matrix = generate_synthetic(SyntheticSpec(2000, 100, tuple(range(10)), 0.8, 5))
        fit_part, score_part = map(matrix.rows, stratified_split(matrix, SplitKind.holdout(0.2), 1).train_test())
        order = np.random.default_rng(2).permutation(100)[:10]
        sets = [sorted(order[:k].tolist()) for k in range(1, 11)]
        with mock.patch.object(classifiers, "_dedupe", wraps=classifiers._dedupe) as spy:
            got = _lazy_tree_predict(fit_part.X, fit_part.y, score_part.X, sets)
        grower = [call.args for call in spy.call_args_list[1:]]  # the first call is the encoder's
        assert {"dense" if n_codes <= codes.size else "sort" for codes, n_codes in grower} == {"dense", "sort"}
        for s, c in enumerate(sets):
            clf = fit(self.dt, project(fit_part, c), 0)
            assert np.array_equal(got[s], predict(clf, project(score_part, c).X))

    @pytest.mark.parametrize("seen", ["all", "none"])
    def test_scored_patterns_all_or_none_seen(self, seen):
        rng = np.random.default_rng(4)
        X = np.unique(rng.integers(0, 2, size=(80, 7)), axis=0)
        fit_rows = X[: X.shape[0] // 2]
        score_rows = fit_rows if seen == "all" else X[X.shape[0] // 2:]
        fit_part = matrix_from_rows(fit_rows, rng.integers(0, 2, size=fit_rows.shape[0]))
        score_part = matrix_from_rows(score_rows, rng.integers(0, 2, size=score_rows.shape[0]))
        assert lazy_holdout(self.dt, fit_part, score_part) == eager_holdout(self.dt, fit_part, score_part)

    def test_zero_width(self):
        fit_part = matrix_from_rows(np.zeros((6, 0), dtype=np.uint8), [0, 1, 1, 0, 1, 1])
        score_part = matrix_from_rows(np.zeros((3, 0), dtype=np.uint8), [1, 0, 1])
        assert holdout_accuracy(self.dt, fit_part, score_part, 0) == eager_holdout(self.dt, fit_part, score_part)

    def test_single_pattern_fit_part(self):
        fit_part = matrix_from_rows([[1, 0, 1]] * 5, [0, 1, 1, 0, 1])
        score_part = matrix_from_rows([[1, 0, 1], [0, 0, 0], [1, 1, 1]], [1, 0, 1])
        assert holdout_accuracy(self.dt, fit_part, score_part, 0) == eager_holdout(self.dt, fit_part, score_part)

    @pytest.mark.parametrize("bad", [[3, 1], [1, 1], [2.0], [6], [-1], [0, 7], None], ids=str)
    @pytest.mark.parametrize("kind", [
        ClassifierKind.decision_tree(), ClassifierKind.random_forest(trees=3),
        ClassifierKind.knn(k=3), ClassifierKind.linear_svm(epochs=2),
    ], ids=lambda kind: kind.name)
    def test_every_kind_checks_its_sets_before_any_fit(self, kind, bad):
        # ``project``'s rule for every set, before the valid set in front of it is scored; no sets give []
        rng = np.random.default_rng(3)
        fit_part = matrix_from_rows(rng.integers(0, 2, size=(20, 6)), np.arange(20) % 2)
        score_part = matrix_from_rows(rng.integers(0, 2, size=(8, 6)), np.arange(8) % 2)
        with mock.patch.object(classifiers, "fit", side_effect=AssertionError), \
                mock.patch.object(classifiers, "_lazy_tree_predict", side_effect=AssertionError):
            if bad is None:
                assert classifiers.holdout_accuracies(kind, fit_part, score_part, [], 0) == []
                return
            with pytest.raises(ValueError) as expected:
                project(fit_part, bad)
            with pytest.raises(ValueError) as info:
                classifiers.holdout_accuracies(kind, fit_part, score_part, [[0, 1], bad], 0)
        assert type(info.value) is type(expected.value) and str(info.value) == str(expected.value)

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
    # Rewrites the forest and SVM pins; run with the package on PYTHONPATH.
    PINNED_FOREST.write_text(json.dumps(forest_pin(), indent=1) + "\n")
    PINNED_SVM.write_text(json.dumps(svm_pin(), indent=1) + "\n")
