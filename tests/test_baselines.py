import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlselect.baselines import chi_square, information_gain, random_subset, top_k
from rlselect.dataset import SyntheticSpec, generate_synthetic

from conftest import matrix_from_rows


class TestInformationGain:
    def test_feature_equal_to_label_scores_one_bit(self):
        m = matrix_from_rows([[0], [0], [1], [1]], [0, 0, 1, 1])
        assert information_gain(m).scores[0] == pytest.approx(1.0, abs=1e-9)

    def test_independent_feature_scores_zero(self):
        m = matrix_from_rows([[0], [1], [0], [1]], [0, 0, 1, 1])
        assert information_gain(m).scores[0] == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed_entropy_case(self):
        # H(Y) = -(3/4)log2(3/4) - (1/4)log2(1/4) = 0.81128...
        # H(Y|X) = 0.5 * 0 + 0.5 * 1 = 0.5  ->  gain = 0.3112781...
        m = matrix_from_rows([[0], [0], [1], [1]], [0, 0, 0, 1])
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25)) - 0.5
        assert information_gain(m).scores[0] == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.3112781, abs=1e-6)

    def test_scores_bounded_by_one_bit(self):
        m = generate_synthetic(SyntheticSpec(500, 12, (0, 3), q=0.9, seed=1))
        scores = information_gain(m).scores
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(60, 5))
        y = rng.integers(0, 2, size=60)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        perm = rng.permutation(60)
        a = information_gain(matrix_from_rows(X, y)).scores
        b = information_gain(matrix_from_rows(X[perm], y[perm])).scores
        assert a == pytest.approx(b.tolist())

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            information_gain(matrix_from_rows([[0], [1]], [1, 1]))

    def test_informative_features_outrank_noise_across_seeds(self):
        # Monte Carlo: planted q=0.8 signal at n=2000 separates cleanly
        informative = (0, 5, 9)
        for seed in range(20):
            m = generate_synthetic(
                SyntheticSpec(2000, 15, informative, q=0.8, seed=1000 + seed)
            )
            ranked = information_gain(m)
            assert set(ranked.order[:3].tolist()) == set(informative)


class TestChiSquare:
    def test_perfect_association_closed_form(self):
        # feature identical to label on 2n balanced rows -> chi2 == 2n
        for n in (2, 5, 20):
            m = matrix_from_rows([[0]] * n + [[1]] * n, [0] * n + [1] * n)
            assert chi_square(m).scores[0] == pytest.approx(2 * n, abs=1e-9)

    def test_exact_independence_scores_zero(self):
        m = matrix_from_rows([[0], [1], [0], [1]], [0, 0, 1, 1])
        assert chi_square(m).scores[0] == pytest.approx(0.0, abs=1e-9)

    def test_constant_feature_scores_zero(self):
        m = matrix_from_rows([[1], [1], [1], [1]], [0, 0, 1, 1])
        assert chi_square(m).scores[0] == 0.0

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, size=(50, 4))
        y = np.array([0, 1] * 25, dtype=np.uint8)
        perm = rng.permutation(50)
        a = chi_square(matrix_from_rows(X, y)).scores
        b = chi_square(matrix_from_rows(X[perm], y[perm])).scores
        assert a == pytest.approx(b.tolist())


class TestRandomSubset:
    def test_full_size_returns_everything(self):
        assert random_subset(5, 5, seed=1) == [0, 1, 2, 3, 4]

    def test_empty(self):
        assert random_subset(5, 0, seed=1) == []

    def test_deterministic(self):
        assert random_subset(100, 10, seed=42) == random_subset(100, 10, seed=42)

    def test_sorted_without_replacement(self):
        sub = random_subset(50, 20, seed=3)
        assert sub == sorted(set(sub))

    def test_oversized_rejected(self):
        with pytest.raises(ValueError):
            random_subset(4, 5, seed=0)


class TestTopK:
    def test_identity_at_full_k(self):
        m = generate_synthetic(SyntheticSpec(200, 6, (1,), q=0.9, seed=4))
        ranked = information_gain(m)
        assert top_k(ranked, 6) == [0, 1, 2, 3, 4, 5]

    def test_top_one_is_argmax(self):
        m = generate_synthetic(SyntheticSpec(500, 6, (4,), q=0.95, seed=5))
        ranked = information_gain(m)
        assert top_k(ranked, 1) == [4]

    def test_zero(self):
        m = generate_synthetic(SyntheticSpec(100, 4, (0,), q=0.9, seed=6))
        assert top_k(information_gain(m), 0) == []

    def test_ties_break_to_lower_index(self):
        # two identical columns tie exactly; order must prefer the lower index
        m = matrix_from_rows([[0, 0], [0, 0], [1, 1], [1, 1]], [0, 0, 1, 1])
        ranked = information_gain(m)
        assert ranked.order.tolist() == [0, 1]
        assert top_k(ranked, 1) == [0]


# ------------------------------------------------ per-feature loop references


def _loop_entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _loop_counts(matrix):
    y1 = matrix.y == 1
    n1 = int(np.count_nonzero(y1))
    n0 = matrix.n_samples - n1
    ones_pos = matrix.X[y1].sum(axis=0).astype(np.float64)
    ones_neg = matrix.X[~y1].sum(axis=0).astype(np.float64)
    return ones_neg, ones_pos, n0, n1


def loop_information_gain(matrix) -> np.ndarray:
    """Information gain with one 2x2 table built per feature in a Python loop."""
    ones_neg, ones_pos, n0, n1 = _loop_counts(matrix)
    n = n0 + n1
    h_y = _loop_entropy(np.array([n0, n1], dtype=np.float64))
    scores = np.empty(matrix.n_features)
    for j in range(matrix.n_features):
        a, b = ones_neg[j], ones_pos[j]
        c, d = n0 - a, n1 - b
        h_cond = ((a + b) * _loop_entropy(np.array([a, b])) + (c + d) * _loop_entropy(np.array([c, d]))) / n
        scores[j] = h_y - h_cond
    scores[np.abs(scores) < 1e-15] = 0.0
    return scores


def loop_chi_square(matrix) -> np.ndarray:
    """Chi-square with one 2x2 table built per feature in a Python loop."""
    ones_neg, ones_pos, n0, n1 = _loop_counts(matrix)
    n = n0 + n1
    scores = np.empty(matrix.n_features)
    for j in range(matrix.n_features):
        observed = np.array([
            [n0 - ones_neg[j], ones_neg[j]],
            [n1 - ones_pos[j], ones_pos[j]],
        ])
        row = observed.sum(axis=1, keepdims=True)
        col = observed.sum(axis=0, keepdims=True)
        expected = row @ col / n
        nz = expected > 0
        scores[j] = float((((observed - expected) ** 2)[nz] / expected[nz]).sum())
    return scores


@st.composite
def labelled_matrices(draw):
    """Both classes present; each column all 0, all 1, the label, its negation, or random.

    Constant columns have zero expected cells; label-copy columns have empty
    observed cells.
    """
    n = draw(st.integers(2, 40))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    y[:2] = (0, 1)
    columns = []
    kinds = st.sampled_from(["zeros", "ones", "label", "flip", "random"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=10)):
        if kind == "random":
            columns.append(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        else:
            columns.append({"zeros": np.zeros(n), "ones": np.ones(n), "label": y, "flip": 1 - y}[kind])
    return matrix_from_rows(np.array(columns).T, y)


class TestArrayScoresEqualLoops:
    """The array IG and chi-square equal the per-feature loops they replaced, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(labelled_matrices())
    def test_information_gain(self, m):
        assert information_gain(m).scores.tolist() == loop_information_gain(m).tolist()

    @settings(max_examples=300, deadline=None)
    @given(labelled_matrices())
    def test_chi_square(self, m):
        assert chi_square(m).scores.tolist() == loop_chi_square(m).tolist()

    def test_empty_cells_and_constant_columns(self):
        y = [0, 0, 0, 1, 1]
        # all 0, all 1, the label (no bit-1 benign rows), its negation, and a mixed column
        m = matrix_from_rows(np.array([[0] * 5, [1] * 5, y, [1 - v for v in y], [1, 0, 1, 1, 0]]).T, y)
        assert information_gain(m).scores.tolist() == loop_information_gain(m).tolist()
        assert chi_square(m).scores.tolist() == loop_chi_square(m).tolist()
        assert chi_square(m).scores[:2].tolist() == [0.0, 0.0]
