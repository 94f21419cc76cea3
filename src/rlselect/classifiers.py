"""Self-contained classifier suite used as the wrapper reward signal and for final evaluation.

Four deterministic learners over binary feature matrices:

* decision tree — CART with Gini impurity, unbounded depth, split ties to the
  lowest feature index;
* random forest — bootstrap CART trees, ceil(sqrt(N)) candidate features per
  impure node, majority vote (an exact tie to benign);
* kNN — Hamming-distance k-vote, distance ties to the lower row index (k odd);
* linear SVM — hinge-loss stochastic subgradient (Pegasos-style schedule).

All fits are pure functions of (kind, matrix, seed); no global RNG is touched.
Trees operate internally on deduplicated row patterns with per-label weights,
which is equivalent to row-level CART and much faster on low-width projections.

One level-wise grower, ``_grow_levels``, builds every tree. Its entries are
(pattern, integer label counts, tree root) triples, so one level can hold the
nodes of many trees. Each pass takes every node of one level at once: it
groups the entries by node, sums the integer per-label counts reaching each
child of every candidate split, a few nodes at a time so the sums stay in
cache, and splits each impure node on the first candidate of least
``_child_impurity``. ``fit`` keeps every node and lays the levels end to end
as a node table.

The decision tree is the case of one tree, unit row weights and every
feature a candidate. A forest gives tree t its bootstrap as integer per-label
weights over the distinct rows of X, drawn from its own generator
``_tree_rng(seed, t)``. Then, at each level, tree t draws ``rng.random(N)``
keys from that generator for each of its impure nodes, in level order, and a
node's candidates are the ``ceil(sqrt(N))`` features of smallest key. No
tree draws from another tree's generator, so tree t is the same whatever the
number of trees beside it.

A fitted tree or forest is one node table of four arrays: ``feature`` (-1 for
a leaf), ``label`` (the node's majority label), ``child`` (the row of the
bit-0 child; the bit-1 child is the next row) and ``roots`` (each tree's
first row). Prediction starts every distinct row at every root and moves the
whole (trees x rows) node matrix down one level per pass, with
``node = child[node] + bit``, until every entry sits on a leaf; then the trees
vote and the votes are scattered back to the rows.

``holdout_accuracy`` fits on one part and scores another; the reward oracle
and every cross-validation fold go through it. For the decision tree it never
builds the tree, and its accuracy is exactly that of ``fit`` + ``accuracy``:

* In unbounded CART on binary patterns every leaf is pure or holds a single
  pattern, so a scored row whose pattern occurs in the fit part gets that
  pattern's majority label (ties to benign).
* For the unseen patterns it runs the same grower with only those patterns
  as queries, so only the nodes on their paths are grown (a lazy decision
  tree), and every split choice is the one ``fit`` makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SampleMatrix, SplitPlan


class FitError(ValueError):
    """Training impossible on the given matrix (e.g. a single class present)."""


@dataclass(frozen=True)
class ClassifierKind:
    """Classifier selector plus hyperparameters for the chosen variant."""

    name: str  # "dt" | "rf" | "knn" | "svm"
    trees: int = 100
    k: int = 5
    lam: float = 1e-4
    epochs: int = 10

    def __post_init__(self):
        if self.name not in ("dt", "rf", "knn", "svm"):
            raise ValueError(f"name must be one of dt, rf, knn, svm, got {self.name!r}")
        if self.name == "rf" and self.trees < 1:
            raise ValueError(f"trees must be >= 1 for a random forest, got {self.trees}")
        if self.name == "knn" and (self.k < 1 or self.k % 2 == 0):
            raise ValueError(f"k must be odd and >= 1 for kNN, got {self.k}")
        if self.name == "svm":
            if self.lam <= 0:
                raise ValueError(f"lam must be > 0 for the SVM, got {self.lam}")
            if self.epochs < 1:
                raise ValueError(f"epochs must be >= 1 for the SVM, got {self.epochs}")

    @classmethod
    def decision_tree(cls) -> "ClassifierKind":
        return cls("dt")

    @classmethod
    def random_forest(cls, trees: int = 100) -> "ClassifierKind":
        return cls("rf", trees=trees)

    @classmethod
    def knn(cls, k: int = 5) -> "ClassifierKind":
        return cls("knn", k=k)

    @classmethod
    def linear_svm(cls, lam: float = 1e-4, epochs: int = 10) -> "ClassifierKind":
        return cls("svm", lam=lam, epochs=epochs)

    def label(self) -> str:
        return {"dt": "DecisionTree", "rf": "RandomForest", "knn": "KNN", "svm": "LinearSVM"}[self.name]


def _vec_gini(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    n = c0 + c1
    p1 = c1 / np.maximum(n, 1e-300)
    return 2.0 * p1 * (1.0 - p1)


def _child_impurity(l0, l1, r0, r1, n, valid):
    """Weighted Gini of the two children per candidate split, inf where ``valid`` is False.

    The one grower computes every float this way from integer-valued counts,
    for the decision tree, the lazy reward and the forest alike.
    """
    return np.where(
        valid,
        ((l0 + l1) * _vec_gini(l0, l1) + (r0 + r1) * _vec_gini(r0, r1)) / n,
        np.inf,
    )


_CHUNK_CELLS = 1 << 16  # pattern x candidate cells scored at once, few enough to stay in cache


def _grow_forest(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int):
    """The node table of a random forest on (X, y).

    Tree t draws its bootstrap rows from ``_tree_rng(seed, t)``. Then, at
    each level, it draws one row of keys ``rng.random(N)`` per impure node,
    in level order, from the same generator; a node's candidates are the
    ``ceil(sqrt(N))`` features of smallest key. A pure node draws nothing.
    """
    n_samples, width = X.shape
    mtry = math.ceil(math.sqrt(width))
    rngs = [_tree_rng(seed, t) for t in range(n_trees)]
    boots = [rng.integers(0, n_samples, size=n_samples) for rng in rngs]

    def draw(trees):
        # the impure nodes of a level come grouped by tree; each tree draws for its own
        return np.concatenate([
            np.sort(np.argpartition(rngs[t].random((k, width)), mtry - 1, axis=1)[:, :mtry], axis=1)
            for t, k in enumerate(np.bincount(trees, minlength=n_trees).tolist()) if k
        ])

    return _grow_trees(X, y, boots, draw)


def _grow_trees(X: np.ndarray, y: np.ndarray, samples: list, draw=None):
    """The node table of one CART tree per sample (row indices of X): the levels of ``_grow_levels``, end to end.

    The decision tree is the one tree whose sample is every row once, with
    every feature a candidate. Tree t's root is row t, and the two children
    of the splits of one level sit in the next level in pairs, in the order
    of their parents.
    """
    patterns, inverse = _unique_rows(X)
    code = y.astype(np.intp) * patterns.shape[0] + inverse
    # weights[t, label, p]: the rows of pattern p with that label in sample t
    weights = np.stack([np.bincount(code[rows], minlength=2 * patterns.shape[0]) for rows in samples])
    weights = weights.reshape(len(samples), 2, -1)
    tree, pid = np.nonzero(weights.sum(axis=1))
    levels = _grow_levels(patterns, pid, weights[tree, 0, pid], weights[tree, 1, pid], tree, draw=draw)[1]
    child, end = [], 0
    for feature, _ in levels:
        end += feature.size  # where the next level starts
        split = feature >= 0
        child.append(np.where(split, end + 2 * (np.cumsum(split) - 1), -1))
    feature, label = (np.concatenate(a) for a in zip(*levels))
    return feature, label, np.concatenate(child), np.arange(len(samples))


def _best_splits(bits, w0, w1, at, tot0, tot1, cand=None):
    """Per node, the feature of least ``_child_impurity`` (the first on ties), or -1 if none separates it.

    Node k holds the rows of ``bits`` from ``at[k]`` to the next start, with
    integer label counts ``w0`` and ``w1`` per row and totals ``tot0[k]``
    and ``tot1[k]``. Column j of ``bits`` is feature j, or ``cand[k, j]``
    when candidates are given.
    """
    r0 = np.add.reduceat(bits * w0[:, None], at, axis=0).astype(np.float64)
    r1 = np.add.reduceat(bits * w1[:, None], at, axis=0).astype(np.float64)
    l0 = tot0.astype(np.float64)[:, None] - r0
    l1 = tot1.astype(np.float64)[:, None] - r1
    valid = ((l0 + l1) > 0) & ((r0 + r1) > 0)
    splits = valid.any(axis=1)
    if not splits.any():  # there may be no column to take the argmin over (zero width)
        return np.full(at.size, -1)
    n = (tot0 + tot1).astype(np.float64)[:, None]
    best = np.argmin(_child_impurity(l0, l1, r0, r1, n, valid), axis=1)
    if cand is not None:
        best = cand[np.arange(best.size), best]
    return np.where(splits, best, -1)


def _grow_levels(patterns, pid, w0, w1, node, queries=None, draw=None):
    """CART on weighted patterns, grown level by level; a level may hold the nodes of many trees.

    An entry is a fit pattern ``patterns[pid]`` of one tree with integer
    label counts ``w0`` and ``w1`` (nonzero total) and ``node``, its tree's
    root: tree t's root is node t of the first level. Each pass handles one
    level: a node is a leaf if it is pure or no candidate feature separates
    its patterns, else it splits on the first candidate of least
    ``_child_impurity``. Every feature is a candidate unless ``draw`` is
    given: ``draw(trees)`` gets the tree of each impure node of the level,
    in level order, and returns their sorted candidates, one row per node.

    Without ``queries`` every node is kept. ``queries`` are pattern rows of
    a single tree; then only the nodes that hold a query are kept, and the
    first value returned is the leaf label of each query.

    The second is, per level, the arrays ``(feature, label)`` of its kept
    nodes: the split feature (-1 for a leaf) and the majority label (ties to
    benign). A level's nodes are in the order of their codes
    ``2 * parent + bit``, where ``parent`` is the index in the level above.
    """
    levels, out = [], None
    tree = np.arange(node.max() + 1)  # the tree of each node of the level
    if queries is not None:
        out = np.empty(queries.shape[0], dtype=np.uint8)
        q_ids = np.arange(queries.shape[0])  # live queries
        q_node = np.zeros(queries.shape[0], dtype=np.intp)
    while True:
        # nodes are numbered 0..K-1 and each holds at least one entry
        order = np.argsort(node)
        pid, w0, w1, node = pid[order], w0[order], w1[order], node[order]
        sizes = np.bincount(node)
        starts = np.cumsum(sizes) - sizes
        tot0 = np.add.reduceat(w0, starts)
        tot1 = np.add.reduceat(w1, starts)
        label = (tot1 > tot0).astype(np.uint8)
        feature = np.full(sizes.size, -1, dtype=np.intp)
        impure = (tot0 > 0) & (tot1 > 0)
        nodes = np.flatnonzero(impure)
        if nodes.size:
            # score only the entries of impure nodes (a pure node is a leaf), a few nodes at a time
            rows = slice(None) if nodes.size == sizes.size else impure[node]
            ids, c0, c1, sizes = pid[rows], w0[rows], w1[rows], sizes[nodes]
            first = np.cumsum(sizes) - sizes
            cand = None if draw is None else draw(tree[nodes])
            cols = patterns.shape[1] if cand is None else cand.shape[1]
            cuts = []
            if ids.size * cols > _CHUNK_CELLS:
                cuts = (np.flatnonzero(np.diff(first * cols // _CHUNK_CELLS)) + 1).tolist()
            for a, b in zip([0, *cuts], [*cuts, nodes.size]):
                lo, hi = first[a], first[b - 1] + sizes[b - 1]
                if cand is None:
                    bits, part = patterns[ids[lo:hi]], None
                else:
                    part = cand[a:b]
                    bits = patterns[ids[lo:hi, None], np.repeat(part, sizes[a:b], axis=0)]
                feature[nodes[a:b]] = _best_splits(
                    bits, c0[lo:hi], c1[lo:hi], first[a:b] - lo, tot0[nodes[a:b]], tot1[nodes[a:b]], part
                )
        levels.append((feature, label))

        split = feature >= 0
        if queries is None:
            if not split.any():
                return out, levels
            code = (2 * np.flatnonzero(split)[:, None] + np.arange(2)).ravel()
        else:
            leaf = ~split[q_node]
            out[q_ids[leaf]] = label[q_node[leaf]]
            q_ids, q_node = q_ids[~leaf], q_node[~leaf]
            if q_ids.size == 0:
                return out, levels
            q_child = 2 * q_node + queries[q_ids, feature[q_node]]
            code, q_node = np.unique(q_child, return_inverse=True)
        f_child = 2 * node + patterns[pid, feature[node]]
        pos = np.minimum(np.searchsorted(code, f_child), code.size - 1)
        keep = code[pos] == f_child
        pid, w0, w1, node = pid[keep], w0[keep], w1[keep], pos[keep]
        tree = tree[code // 2]


def _unique_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(patterns, inverse) of ``np.unique(X, axis=0, return_inverse=True)`` for a 0/1 matrix.

    Rows are packed into bytes and compared as one opaque code each; the
    packed bit order keeps the lexicographic order of the rows.
    """
    packed = np.ascontiguousarray(np.packbits(X, axis=1))  # rows may come in any memory order
    if packed.shape[1] == 0:  # zero-width rows are all one pattern
        packed = np.zeros((X.shape[0], 1), dtype=np.uint8)
    codes = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return X[first], inverse.ravel()


def _lazy_tree_predict(fit_X: np.ndarray, fit_y: np.ndarray, score_X: np.ndarray) -> np.ndarray:
    """Labels the unbounded CART tree of (fit_X, fit_y) gives the rows of score_X.

    A pattern of the fit part ends in a pure leaf or a leaf of its own, so it
    gets its majority label; the tree is grown only along the paths of the
    score patterns the fit part lacks.
    """
    patterns, inverse = _unique_rows(np.concatenate([fit_X, score_X]))
    fit_ids, score_ids = inverse[: fit_X.shape[0]], inverse[fit_X.shape[0]:]
    w0 = np.bincount(fit_ids[fit_y == 0], minlength=patterns.shape[0])
    w1 = np.bincount(fit_ids[fit_y == 1], minlength=patterns.shape[0])
    labels = (w1 > w0).astype(np.uint8)
    seen = (w0 + w1) > 0
    if not seen.all():
        ids = np.flatnonzero(seen)
        labels[~seen] = _grow_levels(patterns, ids, w0[ids], w1[ids], np.zeros_like(ids), queries=patterns[~seen])[0]
    return labels[score_ids]


class _ForestModel:
    """Majority vote of CART trees held in one node table; a decision tree is a forest of one.

    Node i splits on ``feature[i]`` (-1 for a leaf) and has the majority
    label ``label[i]``; its bit-0 child is row ``child[i]`` and its bit-1
    child the row after it. Tree t starts at row ``roots[t]``.
    """

    def __init__(self, feature: np.ndarray, label: np.ndarray, child: np.ndarray, roots: np.ndarray):
        self.feature, self.label, self.child, self.roots = feature, label, child, roots

    def predict(self, rows: np.ndarray) -> np.ndarray:
        # every distinct row goes down every tree, one level per pass
        patterns, inverse = _unique_rows(rows)
        node = np.repeat(self.roots[:, None], patterns.shape[0], axis=1)  # node[t, p]
        cols = np.arange(patterns.shape[0])
        while True:
            feature = self.feature[node]
            inner = feature >= 0
            if not inner.any():
                break
            # a leaf's feature -1 reads some column, but the leaf keeps its node
            node = np.where(inner, self.child[node] + patterns[cols, feature], node)
        votes = self.label[node].sum(axis=0, dtype=np.int64)
        # Exact vote tie (even forests) goes to benign.
        return (2 * votes > self.roots.size).astype(np.uint8)[inverse]


_KNN_CELLS = 1 << 22  # scored row x fit row distances held at once


class _KnnModel:
    def __init__(self, X: np.ndarray, y: np.ndarray, k: int):
        self.X = X.astype(np.float64)
        self.ones = self.X.sum(axis=1)
        self.y = y
        self.k = k

    def predict(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty(rows.shape[0], dtype=np.uint8)
        step = max(1, _KNN_CELLS // self.X.shape[0])
        for lo in range(0, rows.shape[0], step):
            block = rows[lo:lo + step].astype(np.float64)
            # Hamming distance of 0/1 rows, |a| + |b| - 2 a.b, exact in float64
            d = block.sum(axis=1)[:, None] + self.ones - 2.0 * (block @ self.X.T)
            # a stable sort keeps the lower row index first among equal distances
            nearest = np.argsort(d, axis=1, kind="stable")[:, : self.k]
            out[lo:lo + step] = 2 * self.y[nearest].sum(axis=1, dtype=np.int64) > self.k
        return out


class _SvmModel:
    def __init__(self, w: np.ndarray, b: float):
        self.w = w
        self.b = b

    def predict(self, rows: np.ndarray) -> np.ndarray:
        scores = rows.astype(np.float64) @ self.w + self.b
        return (scores > 0.0).astype(np.uint8)


@dataclass(frozen=True)
class TrainedClassifier:
    kind: ClassifierKind
    model: object
    n_features: int
    seed: int


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """Per-tree generator; exposed so tests can replay a forest's bootstrap draw."""
    return np.random.default_rng([seed, tree_index])


def _check_trainable(matrix: SampleMatrix) -> None:
    if matrix.n_samples == 0:
        raise FitError("cannot fit on an empty matrix")
    c0, c1 = matrix.class_counts()
    if c0 == 0 or c1 == 0:
        raise FitError("matrix contains a single class; both labels are required")


def fit(kind: ClassifierKind, matrix: SampleMatrix, seed: int) -> TrainedClassifier:
    """Train a classifier; deterministic given (kind, matrix, seed)."""
    _check_trainable(matrix)
    X, y = matrix.X, matrix.y
    n_features = matrix.n_features

    if kind.name == "dt":
        model: object = _ForestModel(*_grow_trees(X, y, [np.arange(matrix.n_samples)]))
    elif kind.name == "rf":
        model = _ForestModel(*_grow_forest(X, y, kind.trees, seed))
    elif kind.name == "knn":
        model = _KnnModel(X, y.copy(), kind.k)
    elif kind.name == "svm":
        model = _fit_svm(X, y, kind.lam, kind.epochs, seed)
    else:  # pragma: no cover - guarded by ClassifierKind
        raise ValueError(kind.name)

    return TrainedClassifier(kind, model, n_features, seed)


def _fit_svm(X: np.ndarray, y: np.ndarray, lam: float, epochs: int, seed: int) -> _SvmModel:
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
    return _SvmModel(w, b)


def predict(clf: TrainedClassifier, rows) -> np.ndarray:
    """Predict a 0/1 label per row; pure function of (clf, rows). Every cell must be 0 or 1."""
    rows = np.asarray(rows)
    if ((rows != 0) & (rows != 1)).any():
        raise ValueError("rows must hold only 0 and 1")
    rows = rows.astype(np.uint8, copy=False)
    if rows.ndim == 1:
        rows = rows.reshape(0, clf.n_features) if rows.size == 0 else rows.reshape(1, -1)
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.uint8)
    if rows.shape[1] != clf.n_features:
        raise ValueError(
            f"rows have width {rows.shape[1]}, classifier was trained on {clf.n_features}"
        )
    return clf.model.predict(rows)


def accuracy(clf: TrainedClassifier, matrix: SampleMatrix) -> float:
    """Fraction of rows whose prediction matches the label."""
    if matrix.n_samples == 0:
        raise ValueError("accuracy of an empty matrix is undefined")
    return float(np.mean(predict(clf, matrix.X) == matrix.y))


def holdout_accuracy(
    kind: ClassifierKind, fit_part: SampleMatrix, score_part: SampleMatrix, seed: int
) -> float:
    """Accuracy on ``score_part`` of the classifier trained on ``fit_part``.

    Equal to ``accuracy(fit(kind, fit_part, seed), score_part)``, errors
    included; for the decision tree it is computed without building the tree
    (see the module docstring).
    """
    if kind.name != "dt":
        return accuracy(fit(kind, fit_part, seed), score_part)
    _check_trainable(fit_part)
    if score_part.n_samples == 0:
        raise ValueError("accuracy of an empty matrix is undefined")
    if score_part.n_features != fit_part.n_features:
        raise ValueError(
            f"rows have width {score_part.n_features}, classifier was trained on {fit_part.n_features}"
        )
    predictions = _lazy_tree_predict(fit_part.X, fit_part.y, score_part.X)
    return float(np.mean(predictions == score_part.y))


def cv_accuracy(
    kind: ClassifierKind, matrix: SampleMatrix, plan: SplitPlan, seed: int
) -> tuple[float, list[float]]:
    """k-fold cross-validated accuracy: fit on out-fold rows, score the in-fold rows."""
    if plan.kind.method != "kfold":
        raise ValueError("cv_accuracy requires a kfold split plan")
    if plan.assignments.shape[0] != matrix.n_samples:
        raise ValueError("split plan does not cover this matrix")
    per_fold = []
    for fold, (fit_idx, eval_idx) in enumerate(plan.folds()):
        try:
            per_fold.append(holdout_accuracy(kind, matrix.rows(fit_idx), matrix.rows(eval_idx), seed + fold))
        except FitError as exc:
            raise FitError(f"fold {fold}: {exc}") from exc
    return float(np.mean(per_fold)), per_fold
