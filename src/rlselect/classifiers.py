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
One encoder, ``_set_patterns``, turns rows into pattern codes for fits,
predictions and the batched reward alike: it reads a table's rows through one
or many column sets, and each (row, set) entry gets one code that sorts by
set, then by the row's bits. Up to 53 bits in all the code is the set index
above the row read as a binary number, first column most significant: a
float64 product with powers of two (``_codes``), exact because every sum is
an integer below 2**53. Such codes are deduped densely when there are no more
possible codes than entries (mark each code in a boolean array; its running
count is the inverse), else by one sort (``_dedupe``, the one dedupe, which
also numbers the lazy grower's child nodes), and the patterns are decoded
from the distinct codes. Wider entries are packed into bytes behind the set's
big-endian bytes and sorted as one ``np.void`` each. ``_unique_rows`` is the
case of one set of every column.

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

``cv_accuracy`` of the decision tree grows the trees of all its folds in one
``_grow_trees`` call, fold f's fit rows as sample f, so fold f's tree is rooted
at row f of one node table; each fold's rows walk down from its own root
(``_leaves``, the walk prediction uses). A tree depends only on its sample's
distinct patterns and integer counts, so it is the tree ``fit`` grows on that
fold alone. The other kinds fit once per fold.

``holdout_accuracies`` fits on one part and scores another, for many column
sets of the two parts at once. The reward oracle scores its batches of
subsets with it, and ``holdout_accuracy`` (a cross-validation fold of every
kind but the decision tree) is its one-set case. For the decision tree it
never builds a tree, and each accuracy is exactly that of ``fit`` +
``accuracy`` on the set's columns:

* In unbounded CART on binary patterns every leaf is pure or holds a single
  pattern, so a scored row whose pattern occurs in the fit part gets that
  pattern's majority label (ties to benign).
* For the unseen patterns it runs the same grower with only those patterns
  as queries, so only the nodes on their paths are grown (a lazy decision
  tree), and every split choice is the one ``fit`` makes.
* A pass gathers from the fit and score parts only the columns its sets
  use, the fit rows stacked on the score rows, and renumbers the sets onto
  them; nothing else keeps a copy of the parts. ``_set_patterns`` reads that
  table: one small GEMM gives every (row, set) code, all the codes are
  deduped at once, and the lazy trees of the sets grow in one level-wise
  pass, one root per set. A narrower set ends in zero bits, which never
  separate a node. A pass holds at most ``_PASS_ENTRIES`` (row, set)
  entries, so a long list of sets is scored in several passes of
  consecutive sets, each with bounded memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import SampleMatrix, SplitPlan, check_subset, project


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
            if not (math.isfinite(self.lam) and self.lam > 0):
                raise ValueError(f"lam must be finite and > 0 for the SVM, got {self.lam}")
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
    rngs = [_tree_rng(seed, t) for t in range(n_trees)]
    boots = [rng.integers(0, n_samples, size=n_samples) for rng in rngs]
    return _grow_trees(X, y, boots, lambda trees: _draw_candidates(rngs, trees, width))


def _draw_candidates(rngs: list, trees: np.ndarray, width: int) -> np.ndarray:
    """The sorted ``ceil(sqrt(width))`` candidates of each impure node of a level, one row per node.

    ``trees`` holds the tree of each node, grouped by tree in tree order. Tree
    t draws the keys of its k nodes as ``rngs[t].random((k, width))``, in tree
    order; a row's candidates depend on its own keys alone, so one row-wise
    partition and one sort of the stacked keys serve every tree.
    """
    mtry = math.ceil(math.sqrt(width))
    keys = np.concatenate([
        rngs[t].random((k, width)) for t, k in enumerate(np.bincount(trees, minlength=len(rngs)).tolist()) if k
    ])
    return np.sort(np.argpartition(keys, mtry - 1, axis=1)[:, :mtry], axis=1)


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

    Without ``queries`` every node is kept. ``queries`` is a pair (rows,
    roots): pattern rows, each starting at the root of its own tree, so the
    queries of many trees grow in one pass. Then only the nodes that hold a
    query are kept, and the first value returned is the leaf label of each
    query.

    The second is, per level, the arrays ``(feature, label)`` of its kept
    nodes: the split feature (-1 for a leaf) and the majority label (ties to
    benign). A level's nodes are in the order of their codes
    ``2 * parent + bit``, where ``parent`` is the index in the level above.
    """
    levels, out = [], None
    tree = np.arange(node.max() + 1)  # the tree of each node of the level
    if queries is not None:
        queries, q_node = queries
        out = np.empty(q_node.size, dtype=np.uint8)
        q_ids = np.arange(q_node.size)  # live queries
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
            code, q_node = _dedupe(q_child, 2 * feature.size)
        f_child = 2 * node + patterns[pid, feature[node]]
        pos = np.minimum(np.searchsorted(code, f_child), code.size - 1)
        keep = code[pos] == f_child
        pid, w0, w1, node = pid[keep], w0[keep], w1[keep], pos[keep]
        tree = tree[code // 2]


_CODE_BITS = 53  # a float64 sum of distinct powers of two below 2**53 is an exact integer
# (row, set) entries of one lazy-tree pass: a select-dt warm-up of 70 states over 2000 rows
# (140k) is one pass, and a paper-scale warm-up is many passes of this size, never one
_PASS_ENTRIES = 1 << 18


def _codes(bits: np.ndarray, weight: np.ndarray, high, width: int) -> np.ndarray:
    """One int64 code per (row, column of ``weight``): ``bits @ weight``, plus ``high`` above the low ``width`` bits.

    Each column of ``weight`` holds distinct powers of two below ``2**width``
    (and zeros), so every sum is an integer below ``2**width``, and adding
    ``high`` there keeps it an integer: exact in float64 while the code stays
    below ``2**_CODE_BITS``. ``high`` is added in place in the product, which
    is cast once, so the codes take two arrays of their size at a time.
    """
    codes = bits.astype(np.float64) @ weight
    codes += high * 2.0**width
    return codes.astype(np.int64)


def _dedupe(codes: np.ndarray, n_codes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(distinct codes in ascending order, inverse) of 1-D ``codes``.

    Codes in ``0..n_codes-1`` with ``n_codes`` no larger than their number
    are marked in a boolean array, whose running count is the inverse.
    Otherwise (or with no ``n_codes``) they are sorted once, and a code unlike
    the one before it starts a new distinct code.
    """
    if n_codes is not None and n_codes <= codes.size:
        present = np.zeros(n_codes, dtype=bool)
        present[codes] = True
        rank = np.cumsum(present, dtype=np.intp) - 1
        return np.flatnonzero(present), rank[codes]
    order = np.argsort(codes)
    codes = codes[order]
    first = np.empty(codes.size, dtype=bool)
    first[:1] = True
    first[1:] = codes[1:] != codes[:-1]
    inverse = np.empty(codes.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return codes[first], inverse


def _decode(codes: np.ndarray, width: int) -> np.ndarray:
    """The low ``width`` bits of each code as a 0/1 row, most significant first.

    The codes are shifted so those bits lead their low ``ceil(width / 8)``
    big-endian bytes, which are unpacked, ``width`` bits a row, without a
    (codes x width) int64 temporary.
    """
    n_bytes = (width + 7) // 8
    low = (codes << (8 * n_bytes - width)).astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - n_bytes:]
    return np.unpackbits(low, axis=1, count=width)


def _set_patterns(table: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(patterns, inverse, pattern set) of the rows of ``table`` read through each column set.

    ``cols`` is an (S, W) matrix, one set per row: its strictly increasing
    column indices, then -1 past the end of a set narrower than W, read as
    zero bits. Entry ``r * S + s`` is row r read through set s; its code is
    the set index above the entry's bits, first column most significant, so
    the patterns come in set order, then row order. Up to ``_CODE_BITS`` bits
    in all, one small GEMM of the table with one column of powers of two per
    set gives every code (``_codes``; a column no set reads weighs 0, so
    callers pass only the columns their sets use); ``_dedupe`` dedupes them,
    and the patterns are decoded from the distinct codes. Wider entries
    are packed into bytes behind the set's big-endian bytes and sorted as one
    ``np.void`` each; any entry of a pattern is that pattern.
    """
    n_sets, width = cols.shape
    if (n_sets - 1).bit_length() + width <= _CODE_BITS:
        sets, at = np.nonzero(cols >= 0)
        weight = np.zeros((table.shape[1], n_sets))
        weight[cols[sets, at], sets] = 2.0 ** (width - 1 - at)
        codes = _codes(table, weight, np.arange(n_sets), width).ravel()
        distinct, inverse = _dedupe(codes, n_sets << width)
        return _decode(distinct, width), inverse, distinct >> width
    # row r read through set s is rows[r * S + s]; one set of every column is the table itself
    rows = table if cols.shape == (1, table.shape[1]) else np.where(cols >= 0, np.take(table, cols, axis=1), 0)
    rows = rows.reshape(table.shape[0] * n_sets, width)
    key = ((n_sets - 1).bit_length() + 7) // 8
    set_bytes = np.arange(n_sets, dtype=">u8").view(np.uint8).reshape(n_sets, 8)[:, 8 - key:]
    word = np.hstack([np.tile(set_bytes, (table.shape[0], 1)), np.packbits(rows, axis=1)])
    distinct, inverse = _dedupe(word.view(np.dtype((np.void, word.shape[1]))).ravel())
    first = np.empty(distinct.size, dtype=np.intp)
    first[inverse] = np.arange(inverse.size)
    return rows[first], inverse, first % n_sets


def _unique_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(patterns, inverse) of ``np.unique(X, axis=0, return_inverse=True)`` for a 0/1 matrix: ``_set_patterns`` of one set."""
    return _set_patterns(X, np.arange(X.shape[1])[None])[:2]


def _lazy_tree_predict(fit_X: np.ndarray, fit_y: np.ndarray, score_X: np.ndarray, column_sets) -> np.ndarray:
    """Labels the unbounded CART tree of each column set gives the score rows: (sets, score rows).

    ``fit_X`` with labels ``fit_y`` is the fit part, ``score_X`` the score
    part, and each set holds valid column indices. Only the columns the sets
    use are read from each part, the fit rows stacked on the score rows, and
    the sets are renumbered onto them. ``_set_patterns`` then gives every
    (row, set) entry its pattern, the sets padded with -1 to the widest. A
    narrower set's patterns end in zero bits: they never separate a node, and
    they come after the real columns, so they never win a tie.

    A pattern of a set's fit rows ends in a pure leaf or a leaf of its own, so
    it gets its majority label; the trees of all the sets grow in one
    level-wise pass, only along the paths of the score patterns their fit
    rows lack.
    """
    n_fit, n_sets = fit_y.size, len(column_sets)
    cols = np.full((n_sets, max(map(len, column_sets))), -1, dtype=np.intp)
    for s, c in enumerate(column_sets):
        cols[s, : len(c)] = c
    live = cols >= 0
    used, cols[live] = np.unique(cols[live], return_inverse=True)  # the sets renumbered onto the columns they use
    table = np.concatenate([fit_X[:, used], score_X[:, used]])
    # row r of set s is entry r * n_sets + s
    patterns, inverse, pattern_set = _set_patterns(table, cols)
    n_patterns = patterns.shape[0]
    code = np.repeat(fit_y.astype(np.intp), n_sets)
    code *= n_patterns
    code += inverse[: n_fit * n_sets]
    w0, w1 = np.bincount(code, minlength=2 * n_patterns).reshape(2, -1)
    labels = (w1 > w0).astype(np.uint8)
    seen = (w0 + w1) > 0
    if not seen.all():
        grow = np.zeros(n_sets, dtype=bool)
        grow[pattern_set[~seen]] = True
        root = np.cumsum(grow) - 1  # tree t is the t-th set that has an unseen pattern
        ids, unseen = np.flatnonzero(seen & grow[pattern_set]), np.flatnonzero(~seen)
        labels[unseen] = _grow_levels(
            patterns, ids, w0[ids], w1[ids], root[pattern_set[ids]],
            queries=(patterns[unseen], root[pattern_set[unseen]]),
        )[0]
    return labels[inverse[n_fit * n_sets:]].reshape(-1, n_sets).T


def _leaves(feature: np.ndarray, child: np.ndarray, node: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The leaf of a node table that row j of ``rows`` reaches from each start ``node[..., j]``, one level per pass."""
    cols = np.arange(rows.shape[0])
    while True:
        split = feature[node]
        inner = split >= 0
        if not inner.any():
            return node
        # a leaf's feature -1 reads some column, but the leaf keeps its node
        node = np.where(inner, child[node] + rows[cols, split], node)


class _ForestModel:
    """Majority vote of CART trees held in one node table; a decision tree is a forest of one.

    Node i splits on ``feature[i]`` (-1 for a leaf) and has the majority
    label ``label[i]``; its bit-0 child is row ``child[i]`` and its bit-1
    child the row after it. Tree t starts at row ``roots[t]``.
    """

    def __init__(self, feature: np.ndarray, label: np.ndarray, child: np.ndarray, roots: np.ndarray):
        self.feature, self.label, self.child, self.roots = feature, label, child, roots

    def predict(self, rows: np.ndarray) -> np.ndarray:
        # every distinct row goes down every tree: node[t, p] starts at root t
        patterns, inverse = _unique_rows(rows)
        node = _leaves(self.feature, self.child, np.repeat(self.roots[:, None], patterns.shape[0], axis=1), patterns)
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


def _check_trainable(y: np.ndarray) -> None:
    """Raise ``FitError`` unless the labels ``y`` of a fit part hold both classes."""
    if y.size == 0:
        raise FitError("cannot fit on an empty matrix")
    if np.count_nonzero(y) in (0, y.size):
        raise FitError("matrix contains a single class; both labels are required")


def fit(kind: ClassifierKind, matrix: SampleMatrix, seed: int) -> TrainedClassifier:
    """Train a classifier; deterministic given (kind, matrix, seed)."""
    _check_trainable(matrix.y)
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
    """A linear SVM by Pegasos-style subgradient steps on the hinge loss, over a fresh row permutation per epoch.

    Step t on row i, with ``eta = 1 / (lam * t)``, takes the margin
    ``y_i * (x_i @ w + b)``, shrinks ``w`` by ``1 - eta * lam``, and on a
    margin below 1 adds ``eta * y_i`` times ``x_i`` to ``w`` and
    ``eta * y_i`` to ``b``. The rows are a list of float64 views and the
    labels and bias Python floats, so a step indexes no array; the float64
    operations and their order are those of the step written on arrays.
    """
    rng = np.random.default_rng(seed)
    rows = list(X.astype(np.float64))
    labels = (2.0 * y - 1.0).tolist()
    w = np.zeros(X.shape[1])
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(rows)).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            row, label = rows[i], labels[i]
            margin = label * (float(row @ w) + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                step = eta * label
                w += step * row
                b += step
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


def sets_per_pass(kind: ClassifierKind, n_rows: int) -> int:
    """Column sets ``holdout_accuracies`` scores in one pass over ``n_rows`` fit and score rows.

    A decision-tree pass holds at most ``_PASS_ENTRIES`` (row, set) entries,
    and at least one set; the other kinds fit once per set.
    """
    return max(1, _PASS_ENTRIES // n_rows) if kind.name == "dt" else 1


def holdout_accuracies(
    kind: ClassifierKind,
    fit_part: SampleMatrix,
    score_part: SampleMatrix,
    column_sets,
    seed: int,
) -> list[float]:
    """Accuracy on ``score_part`` of the classifier trained on ``fit_part``, for each column set.

    A column set holds 0-based, strictly increasing feature indices; every
    set is checked with ``project``'s rule (``check_subset``) before any fit,
    and no sets give ``[]``. Each result equals ``accuracy(fit(kind,
    project(fit_part, c), seed), project(score_part, c))``, errors included.
    The decision tree builds no tree: the sets are scored in passes, each of
    which reads from both parts only the columns its sets use (see the module
    docstring). Each pass takes the next ``sets_per_pass`` sets in order, so
    its memory is bounded whatever the number of sets, and a set's accuracy
    does not depend on the sets that share its pass. Other kinds fit once per
    set.
    """
    _check_trainable(fit_part.y)
    if score_part.n_samples == 0:
        raise ValueError("accuracy of an empty matrix is undefined")
    if score_part.n_features != fit_part.n_features:
        raise ValueError(
            f"rows have width {score_part.n_features}, classifier was trained on {fit_part.n_features}"
        )
    column_sets = [check_subset(c, fit_part.n_features) for c in column_sets]
    if not column_sets:
        return []
    if kind.name == "dt":
        step = sets_per_pass(kind, fit_part.n_samples + score_part.n_samples)
        accuracies = []
        for start in range(0, len(column_sets), step):
            predictions = _lazy_tree_predict(fit_part.X, fit_part.y, score_part.X, column_sets[start : start + step])
            accuracies += [float(a) for a in np.mean(predictions == score_part.y, axis=1)]
        return accuracies

    def columns(part, c):  # a set of every column is the part itself
        return part if len(c) == part.n_features else project(part, c)

    return [accuracy(fit(kind, columns(fit_part, c), seed), columns(score_part, c)) for c in column_sets]


def holdout_accuracy(
    kind: ClassifierKind, fit_part: SampleMatrix, score_part: SampleMatrix, seed: int
) -> float:
    """Accuracy on ``score_part`` of the classifier trained on ``fit_part``: ``holdout_accuracies`` of every column.

    Equal to ``accuracy(fit(kind, fit_part, seed), score_part)``, errors
    included.
    """
    return holdout_accuracies(kind, fit_part, score_part, [range(fit_part.n_features)], seed)[0]


def cv_accuracy(
    kind: ClassifierKind, matrix: SampleMatrix, plan: SplitPlan, seed: int
) -> tuple[float, list[float]]:
    """k-fold cross-validated accuracy: fit on out-fold rows, score the in-fold rows.

    Fold f's accuracy is ``holdout_accuracy(kind, matrix.rows(fit),
    matrix.rows(eval), seed + f)``, errors included (a ``FitError`` names its
    fold); every fold's checks run before any fit. The decision trees of all
    folds grow in one ``_grow_trees`` call, fold f's from root f, and each
    fold's rows are scored from its own root. Other kinds fit once per fold.
    """
    if plan.kind.method != "kfold":
        raise ValueError("cv_accuracy requires a kfold split plan")
    if plan.assignments.shape[0] != matrix.n_samples:
        raise ValueError("split plan does not cover this matrix")
    folds = list(plan.folds())
    for fold, (fit_idx, eval_idx) in enumerate(folds):
        try:
            _check_trainable(matrix.y[fit_idx])
        except FitError as exc:
            raise FitError(f"fold {fold}: {exc}") from exc
        if eval_idx.size == 0:
            raise ValueError("accuracy of an empty matrix is undefined")
    if kind.name == "dt":
        feature, label, child, roots = _grow_trees(matrix.X, matrix.y, [fit_idx for fit_idx, _ in folds])
        sizes = [eval_idx.size for _, eval_idx in folds]
        rows = np.concatenate([eval_idx for _, eval_idx in folds])  # in fold order, each from its fold's root
        right = label[_leaves(feature, child, np.repeat(roots, sizes), matrix.X[rows])] == matrix.y[rows]
        per_fold = [float(np.mean(part)) for part in np.split(right, np.cumsum(sizes)[:-1])]
    else:
        per_fold = [
            holdout_accuracy(kind, matrix.rows(fit_idx), matrix.rows(eval_idx), seed + fold)
            for fold, (fit_idx, eval_idx) in enumerate(folds)
        ]
    return float(np.mean(per_fold)), per_fold
