"""Self-contained classifier suite used as the wrapper reward signal and for final evaluation.

Four deterministic learners over binary feature matrices:

* decision tree — CART with Gini impurity, unbounded depth, split ties to the
  lowest feature index;
* random forest — bootstrap CART trees, ceil(sqrt(N)) candidate features per
  split, majority vote (an exact tie to benign); all trees of a fit grow in
  lock step on one pattern table (below);
* kNN — Hamming-distance k-vote, distance ties to the lower row index (k odd);
* linear SVM — hinge-loss stochastic subgradient (Pegasos-style schedule).

All fits are pure functions of (kind, matrix, seed); no global RNG is touched.
Trees operate internally on deduplicated row patterns with per-label weights,
which is equivalent to row-level CART and much faster on low-width projections.

One level-wise grower, ``_grow_levels``, builds the decision tree. Each pass
takes every node of one tree level at once: it groups the patterns by node,
sums the integer per-label counts reaching each child of every candidate
split, and splits each impure node on the first feature of least
``_child_impurity``. ``fit`` runs it with every fit pattern as a query, so
every node is kept, and lays its levels end to end as a node table.

A fitted tree or forest is one node table of four arrays: ``feature`` (-1 for
a leaf), ``label`` (the node's majority label), ``child`` (the row of the
bit-0 child; the bit-1 child is the next row) and ``roots`` (each tree's
first row). Prediction starts every distinct row at every root and moves the
whole (trees x rows) node matrix down one level per pass, with
``node = child[node] + bit``, until every entry sits on a leaf; then the trees
vote and the votes are scattered back to the rows.

A forest fit builds one pattern table, the distinct rows of X, and gives each
tree its bootstrap as integer per-label weights over that table. The trees
grow in lock step: each keeps its own DFS stack, and one pass pops a node from
every tree that has work and scores all of those nodes together, with the same
integer counts, impurity arithmetic and tie rule as the decision tree. Tree t
draws its bootstrap, then one candidate set per impure node in DFS preorder,
from its own generator ``_tree_rng(seed, t)``. No other tree draws from that
generator, so lock step leaves every draw, and so every tree, as a
tree-by-tree fit makes it. A node that splits appends its two children to
the shared table as adjacent rows.

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


def _majority(w0: float, w1: float) -> int:
    # Exact tie goes to benign.
    return 1 if w1 > w0 else 0


def _vec_gini(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    n = c0 + c1
    p1 = c1 / np.maximum(n, 1e-300)
    return 2.0 * p1 * (1.0 - p1)


def _child_impurity(l0, l1, r0, r1, n, valid):
    """Weighted Gini of the two children per candidate split, inf where ``valid`` is False.

    Shared by the decision-tree and forest growers, so both compute every
    float the same way from the same integer-valued counts.
    """
    return np.where(
        valid,
        ((l0 + l1) * _vec_gini(l0, l1) + (r0 + r1) * _vec_gini(r0, r1)) / n,
        np.inf,
    )


def _grow_tree(X: np.ndarray, y: np.ndarray):
    """The node table of the unbounded CART tree of (X, y): its levels from ``_grow_levels``, end to end.

    Every fit pattern is a query, so every node is kept, and the two children
    of the splits of one level sit in the next level in pairs, in the order of
    their parents.
    """
    patterns, inverse = _unique_rows(X)
    w0 = np.bincount(inverse[y == 0], minlength=patterns.shape[0])
    w1 = np.bincount(inverse[y == 1], minlength=patterns.shape[0])
    levels = _grow_levels(patterns, w0, w1, patterns)[1]
    child, end = [], 0
    for feature, _ in levels:
        end += feature.size  # where the next level starts
        split = feature >= 0
        child.append(np.where(split, end + 2 * (np.cumsum(split) - 1), -1))
    feature, label = (np.concatenate(a) for a in zip(*levels))
    return feature, label, np.concatenate(child), np.zeros(1, dtype=np.intp)


def _grow_levels(bits: np.ndarray, w0: np.ndarray, w1: np.ndarray, queries: np.ndarray):
    """CART on weighted patterns, grown level by level along the paths of the query patterns.

    ``bits`` are the distinct fit patterns with integer label counts ``w0`` and
    ``w1``, each pattern with a nonzero total. Each pass handles one tree
    level: a node that holds a query is a leaf if it is pure or no feature
    separates its patterns, else it splits on the first feature of least
    ``_child_impurity``; only the children that hold a query are kept.

    Returns the leaf label of each query and, per level, the arrays
    ``(feature, label)`` of its kept nodes: the split feature (-1 for a leaf)
    and the majority label (ties to benign). A level's nodes are in the order
    of their codes ``2 * parent + bit``, where ``parent`` is the index in the
    level above.
    """
    out = np.empty(queries.shape[0], dtype=np.uint8)
    levels = []
    q_ids = np.arange(queries.shape[0])  # live queries
    q_node = np.zeros(queries.shape[0], dtype=np.intp)
    f_node = np.zeros(bits.shape[0], dtype=np.intp)  # node of each live fit pattern
    while True:
        # nodes are numbered 0..K-1 and each holds at least one fit pattern
        order = np.argsort(f_node)
        bits, w0, w1, f_node = bits[order], w0[order], w1[order], f_node[order]
        starts = np.flatnonzero(np.r_[True, f_node[1:] != f_node[:-1]])
        tot0 = np.add.reduceat(w0, starts)
        tot1 = np.add.reduceat(w1, starts)
        r0 = np.add.reduceat(bits * w0[:, None], starts, axis=0).astype(np.float64)
        r1 = np.add.reduceat(bits * w1[:, None], starts, axis=0).astype(np.float64)
        l0 = tot0.astype(np.float64)[:, None] - r0
        l1 = tot1.astype(np.float64)[:, None] - r1
        valid = ((l0 + l1) > 0) & ((r0 + r1) > 0)
        n = (tot0 + tot1).astype(np.float64)[:, None]
        splits = (tot0 > 0) & (tot1 > 0) & valid.any(axis=1)
        # without a split there may be no column to take the argmin over (zero width)
        best = np.argmin(_child_impurity(l0, l1, r0, r1, n, valid), axis=1) if splits.any() else -1
        feature = np.where(splits, best, -1)
        label = (tot1 > tot0).astype(np.uint8)
        levels.append((feature, label))

        leaf = ~splits[q_node]
        out[q_ids[leaf]] = label[q_node[leaf]]
        q_ids, q_node = q_ids[~leaf], q_node[~leaf]
        if q_ids.size == 0:
            return out, levels
        q_child = 2 * q_node + queries[q_ids, feature[q_node]]
        f_child = 2 * f_node + bits[np.arange(bits.shape[0]), feature[f_node]]
        code, q_node = np.unique(q_child, return_inverse=True)
        pos = np.minimum(np.searchsorted(code, f_child), code.size - 1)
        keep = code[pos] == f_child
        bits, w0, w1, f_node = bits[keep], w0[keep], w1[keep], pos[keep]


def _grow_forest(X: np.ndarray, y: np.ndarray, n_trees: int, seed: int):
    """The node table of a random forest on (X, y), all trees grown together on one pattern table.

    Tree t draws its bootstrap from ``_tree_rng(seed, t)``, then draws the
    ``ceil(sqrt(N))`` candidate features of each impure node from the same
    generator, in DFS preorder (left child first). Its bootstrap is a row of
    integer weights per label over the distinct rows of X, and its live set
    at a node is the patterns with nonzero weight there.

    Every tree keeps its own DFS stack; each pass pops one node from every
    tree that has work and scores all of those nodes at once. The counts
    are integers, exact in float64, and the impurity is ``_child_impurity``
    with the first-minimum tie rule, so each tree is the one a DFS CART
    grown alone on its bootstrap rows makes. Every node enters the table as
    a leaf with its majority label; a node that splits gets its feature and
    appends its two children as adjacent rows. Only impure nodes are
    stacked, each draws once when popped; a pure node, the root included,
    draws nothing and stays a leaf.
    """
    n_samples, width = X.shape
    mtry = math.ceil(math.sqrt(width))
    patterns, inverse = _unique_rows(X)
    n_patterns = patterns.shape[0]
    rngs = [_tree_rng(seed, t) for t in range(n_trees)]
    # weights[t, label, p]: rows of pattern p with that label in tree t's bootstrap
    code = y.astype(np.intp) * n_patterns + inverse
    weights = np.stack([
        np.bincount(code[rng.integers(0, n_samples, size=n_samples)], minlength=2 * n_patterns)
        for rng in rngs
    ]).reshape(n_trees, 2, n_patterns)
    w = weights.transpose(1, 0, 2).reshape(2, n_trees * n_patterns)  # w[label, t * n_patterns + p]

    totals = weights.sum(axis=2).tolist()
    label = [_majority(c0, c1) for c0, c1 in totals]  # row t is tree t's root
    feature, child = [-1] * n_trees, [-1] * n_trees
    stacks = [[] for _ in range(n_trees)]  # entries: (live pattern ids, row of the node)
    for t, (c0, c1) in enumerate(totals):
        if c0 and c1:
            stacks[t].append((np.flatnonzero(weights[t].sum(axis=0)), t))
    active = [t for t in range(n_trees) if stacks[t]]
    while active:
        tops = [stacks[t].pop() for t in active]
        draws = [rngs[t].choice(width, size=mtry, replace=False) for t in active]
        cand = np.sort(np.reshape(draws, (len(active), mtry)), axis=1)
        sizes = np.array([live.size for live, _ in tops])
        ids = np.concatenate([live for live, _ in tops])
        node_of = np.repeat(np.arange(len(active)), sizes)
        starts = np.cumsum(sizes) - sizes
        e = w[:, ids + n_patterns * np.repeat(active, sizes)]
        tot = np.add.reduceat(e, starts, axis=1)
        # per label, node and candidate: the weight reaching the bit==1 (right) child
        right = np.add.reduceat(patterns[ids[:, None], cand[node_of]] * e[:, :, None], starts, axis=1)
        right = right.astype(np.float64)
        left = tot.astype(np.float64)[:, :, None] - right
        valid = ((left[0] + left[1]) > 0) & ((right[0] + right[1]) > 0)
        splits = valid.any(axis=1)
        if splits.any():
            n = (tot[0] + tot[1]).astype(np.float64)[:, None]
            best = np.argmin(_child_impurity(left[0], left[1], right[0], right[1], n, valid), axis=1)
            nodes = np.arange(len(active))
            chosen = cand[nodes, best]
            l0, l1, r0, r1 = (a[nodes, best].tolist() for a in (*left, *right))
            # children in one stable partition: node k's bit-0 patterns, then its bit-1 patterns
            side = 2 * node_of + patterns[ids, chosen[node_of]]
            grouped = ids[np.argsort(side, kind="stable")]
            bounds = [0] + np.cumsum(np.bincount(side, minlength=2 * len(active))).tolist()
        for k in np.flatnonzero(splits).tolist():
            t, row, first = active[k], tops[k][1], len(label)
            feature[row], child[row] = int(chosen[k]), first
            feature += [-1, -1]
            child += [-1, -1]
            label += [_majority(l0[k], l1[k]), _majority(r0[k], r1[k])]
            # push right first so the left child is expanded first
            if r0[k] and r1[k]:
                stacks[t].append((grouped[bounds[2 * k + 1]:bounds[2 * k + 2]], first + 1))
            if l0[k] and l1[k]:
                stacks[t].append((grouped[bounds[2 * k]:bounds[2 * k + 1]], first))
        active = [t for t in active if stacks[t]]
    return (np.array(feature, dtype=np.intp), np.array(label, dtype=np.uint8),
            np.array(child, dtype=np.intp), np.arange(n_trees))


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
        labels[~seen] = _grow_levels(patterns[seen], w0[seen], w1[seen], patterns[~seen])[0]
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


class _KnnModel:
    def __init__(self, X: np.ndarray, y: np.ndarray, k: int):
        self.X = X.astype(np.int16)
        self.y = y
        self.k = k

    def predict(self, rows: np.ndarray) -> np.ndarray:
        rows = rows.astype(np.int16)
        out = np.empty(rows.shape[0], dtype=np.uint8)
        for i, row in enumerate(rows):
            d = np.count_nonzero(self.X != row, axis=1)
            # lexsort: distance first, then original row index for ties
            nearest = np.lexsort((np.arange(d.size), d))[: self.k]
            ones = int(self.y[nearest].sum())
            out[i] = 1 if 2 * ones > self.k else 0
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
        model: object = _ForestModel(*_grow_tree(X, y))
    elif kind.name == "rf":
        model = _ForestModel(*_grow_forest(X, y, kind.trees, seed))
    elif kind.name == "knn":
        model = _KnnModel(X.copy(), y.copy(), kind.k)
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
