"""Self-contained classifier suite used as the wrapper reward signal and for final evaluation.

Four deterministic learners over binary feature matrices:

* decision tree — CART with Gini impurity, unbounded depth, split ties to the
  lowest feature index;
* random forest — bootstrap CART trees, ceil(sqrt(N)) candidate features per
  split, majority vote;
* kNN — Hamming-distance k-vote, distance ties to the lower row index (k odd);
* linear SVM — hinge-loss stochastic subgradient (Pegasos-style schedule).

All fits are pure functions of (kind, matrix, seed); no global RNG is touched.
Trees operate internally on deduplicated row patterns with per-label weights,
which is equivalent to row-level CART and much faster on low-width projections.
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


def gini(labels) -> float:
    """Gini impurity of a label multiset."""
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        return 0.0
    p1 = np.count_nonzero(labels) / n
    return 2.0 * p1 * (1.0 - p1)


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass
class Split:
    feature: int
    left: "Leaf | Split | None" = None  # bit == 0
    right: "Leaf | Split | None" = None  # bit == 1


def _majority(w0: float, w1: float) -> int:
    # Exact tie goes to benign.
    return 1 if w1 > w0 else 0


def _vec_gini(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    n = c0 + c1
    p1 = c1 / np.maximum(n, 1e-300)
    return 2.0 * p1 * (1.0 - p1)


def _best_split(bitsf, w0, w1, idx, mtry, rng):
    """Best CART split of the live pattern subset, or None for a leaf.

    A node splits while it is impure and some candidate separates its
    patterns; equal-gain ties resolve to the lowest feature index (argmin
    takes the first minimum and candidates are in ascending order).
    """
    lw0 = w0[idx]
    lw1 = w1[idx]
    tot0 = float(lw0.sum())
    tot1 = float(lw1.sum())
    if tot0 == 0.0 or tot1 == 0.0:
        return None, tot0, tot1

    if mtry is None:
        cand = None
        sub = bitsf[idx]
    else:
        cand = np.sort(rng.choice(bitsf.shape[1], size=mtry, replace=False))
        sub = bitsf[np.ix_(idx, cand)]
    r0 = lw0 @ sub  # class-0 weight reaching the bit==1 child, per candidate
    r1 = lw1 @ sub
    l0 = tot0 - r0
    l1 = tot1 - r1

    valid = ((l0 + l1) > 0) & ((r0 + r1) > 0)
    if not valid.any():
        return None, tot0, tot1

    n = tot0 + tot1
    child_impurity = np.where(
        valid,
        ((l0 + l1) * _vec_gini(l0, l1) + (r0 + r1) * _vec_gini(r0, r1)) / n,
        np.inf,
    )
    best = int(np.argmin(child_impurity))
    feature = best if cand is None else int(cand[best])
    return feature, tot0, tot1


def _grow_tree(X: np.ndarray, y: np.ndarray, mtry, rng) -> Leaf | Split:
    """Iterative CART over the unique row patterns of (X, y) (depth not stack-bounded).

    Each pattern is weighted by its count of rows per label. ``mtry`` is
    None for plain trees (every feature is a candidate) or the per-split
    random candidate count for forest trees. Children are expanded left
    before right so any per-split rng draws happen in a fixed order.
    """
    patterns, inverse = np.unique(X, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    w0 = np.bincount(inverse[y == 0], minlength=patterns.shape[0]).astype(np.float64)
    w1 = np.bincount(inverse[y == 1], minlength=patterns.shape[0]).astype(np.float64)
    bitsf = patterns.astype(np.float64)
    holder = Split(-1)
    stack = [(np.arange(bitsf.shape[0]), holder, "left")]
    while stack:
        live, parent, side = stack.pop()
        feature, tot0, tot1 = _best_split(bitsf, w0, w1, live, mtry, rng)
        if feature is None:
            setattr(parent, side, Leaf(_majority(tot0, tot1)))
            continue
        node = Split(feature)
        setattr(parent, side, node)
        mask = bitsf[live, feature] == 1.0
        # push right first so the left child is expanded first
        stack.append((live[mask], node, "right"))
        stack.append((live[~mask], node, "left"))
    return holder.left


def _predict_tree(node: Leaf | Split, rows: np.ndarray) -> np.ndarray:
    out = np.empty(rows.shape[0], dtype=np.uint8)
    stack = [(node, np.arange(rows.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if isinstance(nd, Leaf):
            out[idx] = nd.label
            continue
        mask = rows[idx, nd.feature] == 1
        stack.append((nd.left, idx[~mask]))
        stack.append((nd.right, idx[mask]))
    return out


class _ForestModel:
    """Majority vote of CART trees; a decision tree is a forest of one."""

    def __init__(self, trees: list[Leaf | Split]):
        self.trees = trees

    def predict(self, rows: np.ndarray) -> np.ndarray:
        votes = np.zeros(rows.shape[0], dtype=np.int64)
        for t in self.trees:
            votes += _predict_tree(t, rows)
        # Exact vote tie (even forests) goes to benign.
        return (2 * votes > len(self.trees)).astype(np.uint8)


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


def fit(kind: ClassifierKind, matrix: SampleMatrix, seed: int) -> TrainedClassifier:
    """Train a classifier; deterministic given (kind, matrix, seed)."""
    if matrix.n_samples == 0:
        raise FitError("cannot fit on an empty matrix")
    c0, c1 = matrix.class_counts()
    if c0 == 0 or c1 == 0:
        raise FitError("matrix contains a single class; both labels are required")

    X, y = matrix.X, matrix.y
    n_features = matrix.n_features

    if kind.name == "dt":
        model: object = _ForestModel([_grow_tree(X, y, None, None)])
    elif kind.name == "rf":
        mtry = math.ceil(math.sqrt(n_features))
        trees = []
        for t in range(kind.trees):
            rng = _tree_rng(seed, t)
            boot = rng.integers(0, matrix.n_samples, size=matrix.n_samples)
            trees.append(_grow_tree(X[boot], y[boot], mtry, rng))
        model = _ForestModel(trees)
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
    """Predict a 0/1 label per row; pure function of (clf, rows)."""
    rows = np.asarray(rows, dtype=np.uint8)
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
            clf = fit(kind, matrix.rows(fit_idx), seed + fold)
        except FitError as exc:
            raise FitError(f"fold {fold}: {exc}") from exc
        per_fold.append(accuracy(clf, matrix.rows(eval_idx)))
    return float(np.mean(per_fold)), per_fold
