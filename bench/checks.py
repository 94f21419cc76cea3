"""Correctness checks on the program's outputs.

Each check takes plain values and returns a list of problems (empty when
the output is right). The references are computed here with numpy, apart
from the program; they never call the code they check.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def subset(final_subset, selection_order, subset_size: int, n_features: int) -> list[str]:
    """The selected subset: ``subset_size`` distinct in-range indices, the sorted pick order."""
    problems = []
    if len(final_subset) != subset_size or len(set(final_subset)) != subset_size:
        problems.append(f"final subset {final_subset} is not {subset_size} distinct indices")
    if any(not 0 <= i < n_features for i in final_subset):
        problems.append(f"final subset {final_subset} has an index outside 0..{n_features - 1}")
    if list(final_subset) != sorted(selection_order):
        problems.append(f"final subset {final_subset} is not the sorted selection order {selection_order}")
    return problems


def oracle_count(fits: int, hits: int, warmup_transitions: int, episodes: int, subset_size: int) -> list[str]:
    """One oracle call per warm-up transition, per training step, per greedy step, plus the final score."""
    expected = warmup_transitions + episodes * subset_size + subset_size + 1
    if fits + hits != expected:
        return [f"oracle fits {fits} + hits {hits} != {expected} calls"]
    return []


def _pattern_codes(*matrices: np.ndarray) -> list[np.ndarray]:
    """Integer code per row, equal exactly when the rows are equal, across all matrices."""
    stacked = np.concatenate(matrices, axis=0)
    _, codes = np.unique(stacked, axis=0, return_inverse=True)
    codes = codes.ravel()
    out, start = [], 0
    for m in matrices:
        out.append(codes[start : start + m.shape[0]])
        start += m.shape[0]
    return out


def dt_majority(fit_X, fit_y, score_X, predictions) -> list[str]:
    """An unbounded CART tree labels a row whose pattern occurs in its training rows
    with that pattern's majority label (ties to benign)."""
    fit_codes, score_codes = _pattern_codes(np.asarray(fit_X), np.asarray(score_X))
    n_codes = int(max(fit_codes.max(initial=-1), score_codes.max(initial=-1))) + 1
    ones = np.bincount(fit_codes, weights=np.asarray(fit_y, dtype=np.float64), minlength=n_codes)
    total = np.bincount(fit_codes, minlength=n_codes)
    seen = total[score_codes] > 0
    majority = (2 * ones[score_codes] > total[score_codes]).astype(np.uint8)
    predictions = np.asarray(predictions)
    wrong = int(np.count_nonzero(predictions[seen] != majority[seen]))
    problems = []
    if wrong:
        problems.append(f"{wrong} of {int(seen.sum())} seen-pattern rows do not get their pattern's majority label")
    if predictions.shape != (np.asarray(score_X).shape[0],) or not np.isin(predictions, (0, 1)).all():
        problems.append("predictions are not one 0/1 label per scored row")
    return problems


def reward(predictions, labels, value: float) -> list[str]:
    """A reward is the fraction of scored rows predicted right."""
    expected = float(np.mean(np.asarray(predictions) == np.asarray(labels)))
    if value != expected:
        return [f"reward {value!r} != accuracy of its predictions {expected!r}"]
    return []


def identical(label: str, first: bytes, other: bytes) -> list[str]:
    if first != other:
        return [f"{label}: outputs differ between runs of the same input"]
    return []


def declared_bits(names, categories, X, declared) -> list[str]:
    """Permission and intent columns hold exactly the names each sample declared."""
    problems = []
    for category, is_intent in (("permission", False), ("intent", True)):
        planted = sorted({n for names_ in declared for n in names_ if (".intent." in n) == is_intent})
        cols = [i for i, c in enumerate(categories) if c == category]
        got = [names[i] for i in cols]
        if got != planted:
            problems.append(f"{category} columns {len(got)} != the {len(planted)} declared names")
            continue
        truth = np.array([[n in names_ for n in planted] for names_ in declared], dtype=np.uint8)
        wrong = int(np.count_nonzero(np.asarray(X)[:, cols] != truth))
        if wrong:
            problems.append(f"{wrong} {category} bits differ from the declared sets")
    return problems


def ngram_bits(names, categories, X, letters, labels, n: int, k: int) -> list[str]:
    """N-gram columns: the top-k grams of the malware letter strings (ties lexicographic), by presence."""
    totals: Counter = Counter()
    for text, label in zip(letters, labels):
        if label == 1:
            totals.update(text[i : i + n] for i in range(len(text) - n + 1))
    vocab = [g for g, _ in sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:k]]
    cols = [i for i, c in enumerate(categories) if c == "ngram"]
    if [names[i] for i in cols] != vocab:
        return ["n-gram vocabulary differs from the top-k malware grams"]
    truth = np.array(
        [[g in present for g in vocab] for present in ({t[i : i + n] for i in range(len(t) - n + 1)} for t in letters)],
        dtype=np.uint8,
    )
    wrong = int(np.count_nonzero(np.asarray(X)[:, cols] != truth))
    return [f"{wrong} n-gram bits differ from gram presence"] if wrong else []


def same_matrix(a, b) -> list[str]:
    """Two SampleMatrix values hold the same names, categories, bits and labels."""
    if a.dictionary != b.dictionary:
        return ["feature dictionaries differ"]
    if not (np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)):
        return ["matrix bits or labels differ"]
    return []


def reference_scores(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Information gain (bits) and Pearson chi-square per column, in closed form."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = float(len(y))
    b = X.T @ y  # bit 1, malware
    a = X.sum(axis=0) - b  # bit 1, benign
    n1 = y.sum()
    n0 = n - n1
    c, d = n0 - a, n1 - b  # bit 0 per class

    def h(p, q):
        tot = p + q
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = [np.where(x > 0, -(x / tot) * np.log2(x / tot), 0.0) for x in (p, q)]
        return np.where(tot > 0, terms[0] + terms[1], 0.0)

    ig = h(np.array(n0), np.array(n1)) - ((a + b) * h(a, b) + (c + d) * h(c, d)) / n
    den = (a + b) * (c + d) * (a + c) * (b + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = np.where(den > 0, n * (a * d - b * c) ** 2 / den, 0.0)
    return ig, chi


def scores(label: str, got, want, tol: float = 1e-9) -> list[str]:
    err = np.abs(np.asarray(got) - np.asarray(want)) / np.maximum(1.0, np.abs(want))
    worst = float(err.max(initial=0.0))
    return [f"{label} scores differ from the reference by {worst:.3g}"] if not worst <= tol else []


def folds(label: str, per_fold, mean: float) -> list[str]:
    problems = []
    if not all(0.0 <= acc <= 1.0 for acc in per_fold):
        problems.append(f"{label} fold accuracy outside [0, 1]: {per_fold}")
    if mean != float(np.mean(per_fold)):
        problems.append(f"{label} mean {mean!r} != mean of its folds {float(np.mean(per_fold))!r}")
    return problems


def knn_reference(X, y, fold_of, k: int) -> list[float]:
    """Hamming k-NN fold accuracies: nearest by distance, then by row order; majority vote."""
    X = np.asarray(X, dtype=np.int16)
    y = np.asarray(y)
    accs = []
    for f in range(int(fold_of.max()) + 1):
        fit_idx, eval_idx = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
        dist = (X[eval_idx, None, :] != X[None, fit_idx, :]).sum(axis=2)
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
        votes = y[fit_idx][nearest].sum(axis=1)
        accs.append(float(np.mean((2 * votes > k) == y[eval_idx])))
    return accs


def same_values(label: str, got, want) -> list[str]:
    if list(got) != list(want):
        return [f"{label}: {list(got)} != reference {list(want)}"]
    return []
