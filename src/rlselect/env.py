"""Episode mechanics and the wrapper reward oracle.

An episode starts from the empty selection and inserts one feature per step
until ``subset_size`` features are held; the state stays sorted at all times,
so any pick order of the same features lands in the same state. Rewards are
classifier accuracies: the oracle fits on one stratified partition of its
matrix, scores on the other, and memoizes by subset so identical subsets are
never refit within a run. It keeps the matrix it is given, which a training
run shares with it, and its partition as two row-index arrays, so it copies no
row for longer than one scoring call. The memo never evicts, so it is also the
oracle's count: one fit per memoized subset, every other request a hit. An
episode's actions never depend on its rewards, so a training run picks them
all first and scores the episode's states in one ``RewardOracle.score`` call;
a warm-up picks all of its episodes first and scores them all in one call.
Such a call makes as many bounded passes as its misses need
(``classifiers.sets_per_pass``), so its memory stays bounded however long the
warm-up.
"""

from __future__ import annotations

import time

import numpy as np

from . import classifiers, net
from .agent import State, insert_sorted
from .classifiers import ClassifierKind
from .dataset import SampleMatrix, SplitKind, stratified_split


class RewardOracle:
    """Subset -> holdout accuracy of the configured classifier, memoized.

    ``fit_fraction`` of the rows (stratified) trains the classifier; the rest
    are scored. Subsets are 1-based feature indices as the agent sees them.
    ``score(subsets)`` checks every subset, then scores every distinct miss in
    one ``classifiers.holdout_accuracies`` call. The oracle keeps ``matrix``
    as given and its split as two row-index arrays; ``fit_part`` and
    ``score_part`` are read-only and copy their rows out of ``matrix`` on each
    access, so the parts exist only while a scoring call runs. A decision-tree
    reward is exact but grows no tree: each pass reads from the fit and score
    parts only the columns its misses use. Scored rows whose pattern occurs in
    the fit part get its majority label, and the trees of the misses are
    followed lazily, only along the paths of the unseen patterns: the misses
    are taken in order, in runs whose union holds at most 10 columns, and
    each run's unseen patterns walk one table of the fit part's label counts
    in every subcube of that union, level by level. A miss wider than 10
    columns keeps the level-wise grower, which grows the trees of all such
    misses of a pass together. Each reward is then returned from the memo
    through ``__call__``, which reads both counts off the memo after every
    request: ``fit_count`` is the number of memoized subsets (the memo never
    evicts) and ``hit_count`` the requests beyond them, as one call per
    subset would give.
    ``miss_seconds`` sums the wall time of the batched passes and
    ``pass_count`` counts them: a decision-tree pass holds at most
    ``classifiers.sets_per_pass`` misses, and the other kinds make one fit per
    miss. An oracle whose fit part lacks a class, or whose score part is
    empty, is a ``ValueError`` when it is built.
    """

    def __init__(
        self,
        kind: ClassifierKind,
        matrix: SampleMatrix,
        seed: int,
        fit_fraction: float = 0.8,
    ):
        plan = stratified_split(matrix, SplitKind.holdout(1.0 - fit_fraction), seed)
        self._init_split(kind, matrix, *plan.train_test(), seed)

    @classmethod
    def from_parts(
        cls, kind: ClassifierKind, fit_part: SampleMatrix, score_part: SampleMatrix, seed: int
    ) -> "RewardOracle":
        """Oracle that trains on ``fit_part`` and scores ``score_part`` as given, without a split.

        The two parts are stacked once into one matrix, fit rows first.
        """
        if fit_part.n_features != score_part.n_features:
            raise ValueError(
                f"fit part has {fit_part.n_features} features, score part {score_part.n_features}"
            )
        matrix = SampleMatrix(
            fit_part.dictionary, np.vstack([fit_part.X, score_part.X]), np.concatenate([fit_part.y, score_part.y])
        )
        oracle = cls.__new__(cls)
        oracle._init_split(kind, matrix, range(fit_part.n_samples), range(fit_part.n_samples, matrix.n_samples), seed)
        return oracle

    def _init_split(self, kind, matrix, fit_rows, score_rows, seed):
        self.matrix, self._fit_rows, self._score_rows = matrix, fit_rows, score_rows
        benign, malware = self.fit_part.class_counts()
        if not (benign and malware):
            raise ValueError(
                f"the reward oracle's fit part has {benign} benign and {malware} malware rows; "
                "both classes are required"
            )
        if len(score_rows) == 0:
            raise ValueError(
                f"the reward oracle's score part is empty (all {len(fit_rows)} rows are in its fit part); "
                "it needs at least one row"
            )
        self.kind = kind
        self.seed = seed
        self.n_features = matrix.n_features
        self._cache: dict[State, float] = {}
        self._requests = 0
        self.fit_count = 0
        self.hit_count = 0
        self.miss_seconds = 0.0
        self.pass_count = 0

    @property
    def fit_part(self) -> SampleMatrix:
        """The rows the classifier trains on, copied out of ``matrix`` on each access."""
        return self.matrix.rows(self._fit_rows)

    @property
    def score_part(self) -> SampleMatrix:
        """The rows the classifier is scored on, copied out of ``matrix`` on each access."""
        return self.matrix.rows(self._score_rows)

    def _key(self, subset) -> State:
        if len(subset) == 0:
            raise ValueError("cannot score an empty subset")
        return net.validate_state(subset, self.n_features)

    def _fit(self, keys: list[State]) -> list[float]:
        start = time.perf_counter()
        rewards = classifiers.holdout_accuracies(
            self.kind, self.fit_part, self.score_part, [[i - 1 for i in key] for key in keys], self.seed
        )
        self.miss_seconds += time.perf_counter() - start
        per_pass = classifiers.sets_per_pass(self.kind, len(self._fit_rows) + len(self._score_rows))
        self.pass_count += -(-len(keys) // per_pass)
        return rewards

    def score(self, subsets) -> list[float]:
        """The reward of each subset, every distinct miss scored in one pass; checks all before any fit."""
        keys = [self._key(subset) for subset in subsets]
        misses = [key for key in dict.fromkeys(keys) if key not in self._cache]
        if misses:
            self._cache.update(zip(misses, self._fit(misses)))
        return [self(key) for key in keys]

    def __call__(self, subset: State) -> float:
        key = self._key(subset)
        if key not in self._cache:
            self._cache[key] = self._fit([key])[0]
        self._requests += 1
        self.fit_count = len(self._cache)
        self.hit_count = self._requests - self.fit_count
        return self._cache[key]


class FeatureEnv:
    """Selection episode driver: sorted state, termination at subset_size.

    Rewards are not the environment's: a caller scores an episode's states
    with ``RewardOracle.score``.
    """

    def __init__(self, n_features: int, subset_size: int):
        if not 1 <= subset_size <= n_features:
            raise ValueError(
                f"subset_size must be in 1..{n_features}, got {subset_size}"
            )
        self.n_features = n_features
        self.subset_size = subset_size

    def reset(self) -> State:
        """The empty selection."""
        return ()

    def step(self, state: State, action: int) -> tuple[State, bool]:
        """(new_state, done); errors on duplicate or invalid actions and on full states."""
        if len(state) >= self.subset_size:
            raise ValueError("episode already complete")
        new_state = net.validate_state(insert_sorted(state, action), self.n_features)
        return new_state, len(new_state) == self.subset_size
