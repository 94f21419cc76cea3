"""Filter-method and random baselines: information gain, chi-square, random subsets.

These rank each feature from data statistics alone (no classifier in the
loop), which is exactly what the learned selector is compared against.
Entropy is measured in bits with the 0*log(0) = 0 convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SampleMatrix


@dataclass(frozen=True)
class RankedFeatures:
    """Per-feature scores plus the induced descending-score order (ties to lower index)."""

    scores: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        order = np.ascontiguousarray(self.order, dtype=np.intp)
        scores.flags.writeable = False
        order.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "order", order)


def _rank(scores: np.ndarray) -> RankedFeatures:
    order = np.lexsort((np.arange(scores.size), -scores))
    return RankedFeatures(scores, order)


def _entropy(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each two-cell count pair (u[j], v[j]); 0 for an empty pair."""
    total = u + v
    with np.errstate(divide="ignore", invalid="ignore"):
        pu, pv = u / total, v / total
        plogp_u = np.where(u > 0, pu * np.log2(pu), 0.0)
        plogp_v = np.where(v > 0, pv * np.log2(pv), 0.0)
    return -(plogp_u + plogp_v)


def _feature_label_table(matrix: SampleMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-feature 2x2 counts, as float vectors over the columns.

    Returns (bit 1 & benign, bit 1 & malware, bit 0 & benign, bit 0 & malware).
    """
    y1 = matrix.y == 1
    n1 = int(np.count_nonzero(y1))
    n0 = matrix.n_samples - n1
    ones_neg = matrix.X[~y1].sum(axis=0).astype(np.float64)
    ones_pos = matrix.X[y1].sum(axis=0).astype(np.float64)
    return ones_neg, ones_pos, n0 - ones_neg, n1 - ones_pos


def _check_two_classes(matrix: SampleMatrix) -> None:
    if matrix.n_samples == 0:
        raise ValueError("empty matrix")
    c0, c1 = matrix.class_counts()
    if c0 == 0 or c1 == 0:
        raise ValueError("both classes must be present")


def information_gain(matrix: SampleMatrix) -> RankedFeatures:
    """Mutual information of each feature with the label: H(Y) - H(Y|X), in bits."""
    _check_two_classes(matrix)
    a, b, c, d = _feature_label_table(matrix)
    h_y = _entropy(a + c, b + d)  # the class counts, once per feature
    h_cond = ((a + b) * _entropy(a, b) + (c + d) * _entropy(c, d)) / matrix.n_samples
    scores = h_y - h_cond
    # Clamp the tiny negative residue float arithmetic can leave at independence.
    scores[np.abs(scores) < 1e-15] = 0.0
    return _rank(scores)


def chi_square(matrix: SampleMatrix) -> RankedFeatures:
    """Pearson chi-square of each feature/label 2x2 table; zero expected cells contribute 0."""
    _check_two_classes(matrix)
    a, b, c, d = _feature_label_table(matrix)
    n = matrix.n_samples
    benign, malware, bit0, bit1 = c + a, d + b, c + d, a + b

    def cell(observed, row, col):
        expected = row * col / n
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)

    # summed in the row-major cell order of the 2x2 table
    scores = cell(c, benign, bit0) + cell(a, benign, bit1) + cell(d, malware, bit0) + cell(b, malware, bit1)
    return _rank(scores)


def random_subset(n_features: int, size: int, seed: int) -> list[int]:
    """Uniform sorted sample of ``size`` feature indices without replacement."""
    if size > n_features:
        raise ValueError(f"size {size} exceeds feature count {n_features}")
    if size < 0:
        raise ValueError("size must be >= 0")
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(n_features, size=size, replace=False))


def top_k(ranked: RankedFeatures, k: int) -> list[int]:
    """The k best-ranked feature indices, re-sorted ascending."""
    if k > ranked.order.size:
        raise ValueError(f"k {k} exceeds feature count {ranked.order.size}")
    if k < 0:
        raise ValueError("k must be >= 0")
    return sorted(int(i) for i in ranked.order[:k])
