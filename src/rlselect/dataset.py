"""Labeled binary feature matrices, feature dictionaries, splits, and a synthetic generator.

Everything downstream (classifiers, baselines, the selection agent) consumes the
:class:`SampleMatrix` defined here. Labels are fixed as 0 = benign, 1 = malware.
The on-disk format is a plain CSV: a header row of feature names followed by a
trailing ``label`` column, body cells all 0/1.
"""

from __future__ import annotations

import csv
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .files import replace_atomically

CATEGORIES = ("permission", "intent", "ngram", "synthetic")

# CSV column prefixes marking the feature category; stripped on load, added on save.
CATEGORY_PREFIXES = {"perm:": "permission", "intent:": "intent", "ngram:": "ngram"}
_PREFIX_FOR = {cat: prefix for prefix, cat in CATEGORY_PREFIXES.items()}


class CsvFormatError(ValueError):
    """Malformed cell or unreadable structure in a matrix CSV."""


class SchemaError(ValueError):
    """CSV header violates the dictionary rules (e.g. duplicate feature name)."""


class SplitError(ValueError):
    """Requested split cannot be built from the given matrix."""


@dataclass(frozen=True)
class FeatureDictionary:
    """Ordered feature names with categories; position in the tuple is the 0-based index."""

    names: tuple[str, ...]
    categories: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) != len(self.categories):
            raise ValueError("names and categories must have equal length")
        for cat in self.categories:
            if cat not in CATEGORIES:
                raise ValueError(f"unknown feature category {cat!r}")
        seen = set()
        for name, cat in zip(self.names, self.categories):
            key = (cat, name)
            if key in seen:
                raise SchemaError(f"duplicate feature name {name!r} in category {cat!r}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.names)

    def category_slots(self, category: str) -> Mapping[str, int]:
        """Read-only map from each name of this category to its position among the category's entries."""
        if category not in CATEGORIES:
            raise ValueError(f"unknown feature category {category!r}")
        return self._category_slots.get(category, MappingProxyType({}))

    @cached_property
    def _category_slots(self) -> dict[str, Mapping[str, int]]:
        # one scan per dictionary; not a field, so equality and hashing ignore it
        slots: dict[str, dict[str, int]] = {}
        for name, c in zip(self.names, self.categories):
            of = slots.setdefault(c, {})
            of[name] = len(of)
        return {c: MappingProxyType(of) for c, of in slots.items()}

    @classmethod
    def from_names(cls, names, category: str = "synthetic") -> "FeatureDictionary":
        names = tuple(names)
        return cls(names, (category,) * len(names))


def _split_column_name(column: str) -> tuple[str, str]:
    """(name, category) for a CSV column, stripping any category prefix."""
    for prefix, cat in CATEGORY_PREFIXES.items():
        if column.startswith(prefix):
            return column[len(prefix):], cat
    return column, "synthetic"


def _column_name(name: str, category: str) -> str:
    return _PREFIX_FOR.get(category, "") + name


@dataclass(frozen=True)
class SampleMatrix:
    """Binary feature matrix with labels.

    ``X`` is (n_samples, n_features) with values in {0, 1}; ``y`` holds the
    labels (0 = benign, 1 = malware). Arrays are frozen after construction.
    """

    dictionary: FeatureDictionary
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.uint8)
        y = np.ascontiguousarray(self.y, dtype=np.uint8)
        if X.ndim != 2 or y.ndim != 1:
            raise ValueError("X must be 2-D and y 1-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("row count mismatch between X and y")
        if X.shape[1] != len(self.dictionary):
            raise ValueError(
                f"matrix has {X.shape[1]} columns but dictionary has {len(self.dictionary)} entries"
            )
        if X.size and X.max() > 1:
            raise ValueError("feature values must be 0/1")
        if y.size and y.max() > 1:
            raise ValueError("labels must be 0/1")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def rows(self, indices) -> "SampleMatrix":
        """Row-subset view as a new matrix (same dictionary)."""
        idx = np.asarray(indices, dtype=np.intp)
        return SampleMatrix(self.dictionary, self.X[idx], self.y[idx])

    def class_counts(self) -> tuple[int, int]:
        return int(np.count_nonzero(self.y == 0)), int(np.count_nonzero(self.y == 1))


def load_csv(path) -> SampleMatrix:
    """Load a SampleMatrix from CSV (feature-name header plus trailing ``label``).

    A body in the plain layout :func:`save_csv` writes (0/1 cells, commas,
    CRLF or LF line ends) is read in one numpy pass. Any other body is read
    again, record by record, by ``csv.reader``, which alone decides whether
    it is accepted and which error it raises. A UTF-8 byte-order mark before
    the header is skipped, not read as part of the first column's name.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, expected a header row") from None
        if not header or header[-1] != "label":
            raise SchemaError(f"{path}: last header column must be 'label'")
        parsed = [_split_column_name(col) for col in header[:-1]]
        names = tuple(n for n, _ in parsed)
        categories = tuple(c for _, c in parsed)
        dictionary = FeatureDictionary(names, categories)
        try:
            cells = _plain_cells(fh.read(), len(header))
        except UnicodeDecodeError:
            cells = None

    if cells is None:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            next(reader)
            cells = _checked_cells(reader, header, path)
    return SampleMatrix(dictionary, cells[:, :-1], cells[:, -1])


def _plain_cells(body: str, n_cells: int) -> np.ndarray | None:
    """The (rows, n_cells) 0/1 cells of a body in the plain layout, or None if it is not plain.

    Plain means every row is ``n_cells`` digits 0/1 joined by commas, and
    every row, the last included, ends with the same CRLF or LF line end.
    """
    if not body.isascii():
        return None
    end = b"\r\n" if body.endswith("\r\n") else b"\n"
    raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    line = 2 * n_cells - 1 + len(end)
    if raw.size % line:
        return None
    rows = raw.reshape(-1, line)
    cells = rows[:, 0:-len(end):2] - np.uint8(ord("0"))  # bytes below "0" wrap past 1
    if (cells > 1).any() or (rows[:, 1:-len(end):2] != ord(",")).any():
        return None
    if (rows[:, -len(end):] != np.frombuffer(end, dtype=np.uint8)).any():
        return None
    return cells


def _checked_cells(reader, header: list[str], path) -> np.ndarray:
    """The 0/1 cells of the body records, each checked; raises CsvFormatError naming the row."""
    rows = []
    for lineno, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
            )
        for col, cell in enumerate(row):
            if cell not in ("0", "1"):
                colname = header[col]
                raise CsvFormatError(
                    f"{path}: bad cell {cell!r} at (row {lineno}, col {colname})"
                )
        rows.append([int(c) for c in row])
    return np.array(rows, dtype=np.uint8).reshape(len(rows), len(header))


def save_csv(matrix: SampleMatrix, path) -> None:
    """Write the matrix in the CSV format understood by :func:`load_csv`."""
    columns = [
        _column_name(n, c)
        for n, c in zip(matrix.dictionary.names, matrix.dictionary.categories)
    ]
    # body: one digit per cell, comma-separated, with the CRLF line end csv.writer emits
    cells = np.concatenate([matrix.X, matrix.y[:, None]], axis=1) + np.uint8(ord("0"))
    body = np.full((cells.shape[0], 2 * cells.shape[1] + 1), ord(","), dtype=np.uint8)
    body[:, 0:-1:2] = cells
    body[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    with replace_atomically(path) as fh:
        csv.writer(fh).writerow(columns + ["label"])  # names may need quoting
        fh.write(body.tobytes().decode("ascii"))


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-signal generator spec.

    Each informative feature copies the label with probability ``q`` (flipped
    otherwise); every other bit is a fair coin. ``q`` must exceed 0.5 or the
    planted features carry no signal.
    """

    n_samples: int
    n_features: int
    informative: tuple[int, ...] | int  # an int n is shorthand for the first n columns
    q: float
    seed: int = 0

    def __post_init__(self):
        informative = self.informative
        if isinstance(informative, int):
            informative = range(informative)
        object.__setattr__(self, "informative", tuple(sorted(informative)))
        if self.n_samples < 0:
            raise ValueError(f"n_samples must be >= 0, got {self.n_samples}")
        if self.n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {self.n_features}")
        if not (0.5 < self.q <= 1.0):
            raise ValueError(f"q must be in (0.5, 1], got {self.q}")
        for j in self.informative:
            if not 0 <= j < self.n_features:
                raise ValueError(f"informative index {j} out of range 0..{self.n_features - 1}")
        if len(set(self.informative)) != len(self.informative):
            raise ValueError("informative indices must be unique")


def generate_synthetic(spec: SyntheticSpec) -> SampleMatrix:
    """Generate a labeled matrix per the spec; deterministic in the seed."""
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n_samples, spec.n_features
    y = rng.integers(0, 2, size=n, dtype=np.uint8)
    X = rng.integers(0, 2, size=(n, m), dtype=np.uint8)
    for j in spec.informative:
        agree = rng.random(n) < spec.q
        X[:, j] = np.where(agree, y, 1 - y)
    width = max(3, len(str(m - 1)))
    names = tuple(f"f{i:0{width}d}" for i in range(m))
    return SampleMatrix(FeatureDictionary.from_names(names), X, y)


@dataclass(frozen=True)
class SplitKind:
    method: str  # "kfold" | "holdout"
    k: int = 0
    fraction: float = 0.0

    def __post_init__(self):
        if self.method == "kfold":
            if self.k < 2:
                raise ValueError(f"kfold needs k >= 2, got {self.k}")
        elif self.method == "holdout":
            if not 0.0 < self.fraction < 1.0:
                raise ValueError(f"holdout fraction must be in (0, 1), got {self.fraction}")
        else:
            raise ValueError(f"unknown split method {self.method!r}")

    @classmethod
    def kfold(cls, k: int) -> "SplitKind":
        return cls("kfold", k=k)

    @classmethod
    def holdout(cls, fraction: float) -> "SplitKind":
        return cls("holdout", fraction=fraction)


@dataclass(frozen=True)
class SplitPlan:
    """Per-row fold/partition assignment. Holdout uses partition 0 = fit, 1 = held out."""

    kind: SplitKind
    assignments: np.ndarray
    seed: int

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignments, dtype=np.intp)
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def folds(self):
        """Yield (fit_indices, eval_indices) per fold (kfold only)."""
        if self.kind.method != "kfold":
            raise ValueError("folds() requires a kfold plan")
        for f in range(self.kind.k):
            mask = self.assignments == f
            yield np.flatnonzero(~mask), np.flatnonzero(mask)

    def train_test(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind.method != "holdout":
            raise ValueError("train_test() requires a holdout plan")
        return self.fold_indices(0), self.fold_indices(1)


def stratified_split(matrix: SampleMatrix, kind: SplitKind, seed: int) -> SplitPlan:
    """Stratified, deterministic fold assignment over the matrix rows."""
    rng = np.random.default_rng(seed)
    assignments = np.zeros(matrix.n_samples, dtype=np.intp)
    if kind.method == "kfold":
        for cls in (0, 1):
            idx = np.flatnonzero(matrix.y == cls)
            if idx.size < kind.k:
                raise SplitError(
                    f"class {cls} has {idx.size} samples, fewer than k={kind.k}"
                )
            rng.shuffle(idx)
            assignments[idx] = np.arange(idx.size) % kind.k
    else:  # holdout
        for cls in (0, 1):
            idx = np.flatnonzero(matrix.y == cls)
            rng.shuffle(idx)
            n_test = int(round(idx.size * kind.fraction))
            assignments[idx[:n_test]] = 1
    return SplitPlan(kind, assignments, seed)


def is_index(i) -> bool:
    """The one integer rule of an index: an int or a numpy integer, and not a bool."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def check_subset(subset, n_features: int) -> list:
    """``subset`` as a list, checked to hold strictly increasing integer column indices in 0..n_features-1."""
    sub = list(subset)
    if not all(map(is_index, sub)):
        raise ValueError("subset indices must be integers")
    if any(b <= a for a, b in zip(sub, sub[1:])):
        raise ValueError(f"subset must be strictly increasing, got {sub}")
    for i in sub:
        if not 0 <= i < n_features:
            raise ValueError(f"subset index {i} out of range 0..{n_features - 1}")
    return sub


def project(matrix: SampleMatrix, subset) -> SampleMatrix:
    """Restrict the matrix to the given strictly-increasing 0-based column subset (``check_subset``)."""
    sub = check_subset(subset, matrix.n_features)
    names = tuple(matrix.dictionary.names[i] for i in sub)
    cats = tuple(matrix.dictionary.categories[i] for i in sub)
    new_dict = FeatureDictionary(names, cats)
    return SampleMatrix(new_dict, matrix.X[:, sub], matrix.y)
