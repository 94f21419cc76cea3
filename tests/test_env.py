import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlselect import classifiers
from rlselect.classifiers import ClassifierKind
from rlselect.dataset import SplitKind, SyntheticSpec, generate_synthetic, project, stratified_split
from rlselect.env import FeatureEnv, RewardOracle, insert_sorted

from conftest import matrix_from_rows, traced


def planted_matrix(seed=0, n=400, features=8, informative=(0,), q=1.0):
    return generate_synthetic(SyntheticSpec(n, features, informative, q, seed))


def pooled_matrix(seed, n=150, features=80, pool=12):
    """Rows drawn from a small pool: repeated rows, tied labels, and score patterns seen and unseen in the fit part."""
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2, size=(pool, features), dtype=np.uint8)
    return matrix_from_rows(patterns[rng.integers(0, pool, size=n)], rng.integers(0, 2, size=n))


# 80 features, so subsets reach past the 64-feature word boundary
WIDE_MATRICES = (planted_matrix(seed=3, n=150, features=80, informative=(0, 40, 64), q=0.8), pooled_matrix(seed=4))
KINDS = (
    ClassifierKind.decision_tree(), ClassifierKind.random_forest(trees=3),
    ClassifierKind.knn(k=3), ClassifierKind.linear_svm(epochs=2),
)


@st.composite
def batches(draw, n_features=80):
    """A batch of subsets of mixed widths in 1..80, some repeated.

    Drawn often: widths up to 7, whose codes the DT pass dedupes densely over
    the 150 rows; 51 to 54, either side of the 53-bit code with up to two set
    bits; and 63 to 65. Other widths up to 53 sort their codes.
    """
    width = st.one_of(st.integers(1, n_features), st.sampled_from([1, 2, 3, 7, 51, 52, 53, 54, 63, 64, 65]))
    subset = width.flatmap(
        lambda w: st.lists(st.integers(1, n_features), min_size=w, max_size=w, unique=True).map(sorted).map(tuple)
    )
    distinct = draw(st.lists(subset, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8))
    return [distinct[i] for i in picks]


class TestEpisodeState:
    def test_reset_is_empty(self):
        env = FeatureEnv(8, 3)
        assert env.reset() == ()
        assert env.reset() == env.reset()

    def test_insert_keeps_sorted(self):
        assert insert_sorted((5, 9), 3) == (3, 5, 9)
        assert insert_sorted((), 4) == (4,)

    def test_duplicate_insert_rejected(self):
        with pytest.raises(ValueError):
            insert_sorted((2, 4), 4)


class TestFeatureEnv:
    def _env(self, subset_size=3):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(), seed=1)
        return FeatureEnv(8, subset_size), oracle

    def test_episode_terminates_at_subset_size(self):
        env, oracle = self._env(3)
        state, states = env.reset(), []
        for step in range(3):
            state, done = env.step(state, step + 2)
            states.append(state)
            assert done == (step == 2)
        assert len(state) == 3
        assert all(0.0 <= reward <= 1.0 for reward in oracle.score(states))

    def test_step_on_full_state_rejected(self):
        env, _ = self._env(1)
        state, done = env.step(env.reset(), 1)
        assert done
        with pytest.raises(ValueError):
            env.step(state, 2)

    def test_duplicate_action_rejected(self):
        env, _ = self._env(3)
        state, _ = env.step(env.reset(), 5)
        with pytest.raises(ValueError):
            env.step(state, 5)

    def test_selection_order_invariance(self):
        env, oracle = self._env(3)
        states = []
        for order in itertools.permutations((2, 6, 7)):
            state = env.reset()
            for action in order:
                state, done = env.step(state, action)
            states.append(state)
        assert len(set(states)) == 1
        assert len(set(oracle.score(states))) == 1

    @pytest.mark.parametrize("action", [2.7, np.float64(2.0)])
    def test_float_action_rejected(self, action):
        env, _ = self._env(3)
        state, _ = env.step(env.reset(), 5)
        with pytest.raises(ValueError, match="not an integer"):
            env.step(state, action)
        with pytest.raises(ValueError, match="not an integer"):
            env.step(env.reset(), action)

    def test_numpy_integer_action_gives_a_state_of_ints(self):
        env, _ = self._env(3)
        state, _ = env.step(env.reset(), np.int64(4))
        assert state == (4,) and type(state[0]) is int

    @pytest.mark.parametrize("action", [0, 9])
    def test_action_outside_features_rejected(self, action):
        env, _ = self._env(3)
        with pytest.raises(ValueError, match="1..8"):
            env.step(env.reset(), action)

    def test_transition_count_and_prefix_length(self):
        env, _ = self._env(4)
        state = env.reset()
        for t in range(1, 5):
            assert len(state) == t - 1
            state, done = env.step(state, t)
        assert done


class TestRewardOracle:
    def test_perfect_feature_scores_one(self):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(q=1.0), seed=2)
        assert oracle((1,)) == 1.0

    def test_noise_subset_scores_near_half(self):
        # all-noise matrix: accuracy on the held-out rows hovers at chance
        for seed in (0, 1, 2):
            m = generate_synthetic(SyntheticSpec(2000, 10, (), q=0.9, seed=seed))
            oracle = RewardOracle(ClassifierKind.decision_tree(), m, seed=seed)
            assert oracle((1, 2, 3)) == pytest.approx(0.5, abs=0.05)

    def test_memoization_skips_refit(self):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(), seed=3)
        first = oracle((2, 4))
        fits = oracle.fit_count
        second = oracle((2, 4))
        assert first == second
        assert oracle.fit_count == fits
        assert oracle.hit_count == 1

    def test_cache_off_matches_cache_on(self):
        m = planted_matrix(seed=5, q=0.8, informative=(1, 3))
        cached = RewardOracle(ClassifierKind.decision_tree(), m, seed=4)
        for subset in ((1,), (2, 4), (1, 2, 4), (2, 4)):
            columns = [i - 1 for i in subset]
            clf = classifiers.fit(cached.kind, project(cached.fit_part, columns), cached.seed)
            assert cached(subset) == classifiers.accuracy(clf, project(cached.score_part, columns))
        assert (cached.fit_count, cached.hit_count) == (3, 1)

    @pytest.mark.parametrize("kind", [
        ClassifierKind.random_forest(trees=3), ClassifierKind.knn(k=3), ClassifierKind.linear_svm(),
    ], ids=lambda k: k.name)
    def test_other_kinds_reward_is_fit_then_accuracy(self, kind):
        oracle = RewardOracle(kind, planted_matrix(seed=2, n=200, q=0.8, informative=(0, 2)), seed=6)
        for subset in ((1,), (1, 3), (2, 3, 6)):
            columns = [i - 1 for i in subset]
            clf = classifiers.fit(kind, project(oracle.fit_part, columns), oracle.seed)
            assert oracle(subset) == classifiers.accuracy(clf, project(oracle.score_part, columns))

    def test_empty_subset_rejected(self):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(), seed=6)
        with pytest.raises(ValueError):
            oracle(())

    def test_unsorted_subset_rejected(self):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(), seed=6)
        with pytest.raises(ValueError):
            oracle((4, 2))

    @pytest.mark.parametrize("subset", [(0,), (0, 3), (9,), (2, 9)])
    def test_subset_outside_features_rejected(self, subset):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(), seed=6)
        with pytest.raises(ValueError, match="1..8"):
            oracle(subset)

    def test_dt_reward_on_multi_word_subsets_is_fit_then_accuracy(self):
        # above 64 features a row's code is its packed bytes, not one 64-bit word
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(n=300, features=80, q=0.8), seed=6)
        for subset in (tuple(range(1, 65)), tuple(range(1, 66)), tuple(range(2, 81)), tuple(range(1, 81))):
            columns = [i - 1 for i in subset]
            clf = classifiers.fit(oracle.kind, project(oracle.fit_part, columns), oracle.seed)
            assert oracle(subset) == classifiers.accuracy(clf, project(oracle.score_part, columns))

    @pytest.mark.parametrize("subset", [(2.7,), (1, 2.7), (np.float64(2.0),), (1, np.float64(2.0))])
    def test_float_index_rejected_without_a_fit_or_hit(self, subset):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(), seed=6)
        oracle.score([(1,), (2,), (1, 2)])  # a float equal to a memoized index must not hit it either
        counts = (oracle.fit_count, oracle.hit_count)
        with mock.patch.object(classifiers, "holdout_accuracies", wraps=classifiers.holdout_accuracies) as spy:
            with pytest.raises(ValueError, match="not an integer"):
                oracle(subset)
            with pytest.raises(ValueError, match="not an integer"):
                oracle.score([(3,), subset])
        assert spy.call_count == 0
        assert (oracle.fit_count, oracle.hit_count) == counts

    @pytest.mark.parametrize("parts", [
        lambda m: (m.rows(np.flatnonzero(m.y == 0)), m),  # the fit part holds one class
        lambda m: (m, m.rows(np.array([], dtype=np.intp))),  # nothing to score
    ], ids=["one-class-fit-part", "empty-score-part"])
    def test_unusable_parts_rejected_before_any_fit(self, parts):
        fit_part, score_part = parts(planted_matrix())
        with mock.patch.object(classifiers, "holdout_accuracies") as spy:
            with pytest.raises(ValueError, match="reward oracle's"):
                RewardOracle.from_parts(ClassifierKind.decision_tree(), fit_part, score_part, seed=1)
        assert spy.call_count == 0

    def test_rewards_identical_within_run(self):
        oracle = RewardOracle(ClassifierKind.knn(k=3), planted_matrix(q=0.8), seed=7)
        values = {oracle((2, 5)) for _ in range(5)}
        assert len(values) == 1

    def test_parts_are_the_rows_of_the_split(self):
        matrix = planted_matrix(seed=8, q=0.8)
        oracle = RewardOracle(ClassifierKind.decision_tree(), matrix, seed=9)
        split = stratified_split(matrix, SplitKind.holdout(1.0 - 0.8), 9).train_test()
        for part, rows in zip((oracle.fit_part, oracle.score_part), split):
            expected = matrix.rows(rows)
            assert part.dictionary == expected.dictionary
            assert np.array_equal(part.X, expected.X) and np.array_equal(part.y, expected.y)
        with pytest.raises(AttributeError):
            oracle.fit_part = matrix

    def test_from_parts_keeps_the_parts_it_is_given(self):
        split = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(seed=8, q=0.8), seed=9)
        given = split.fit_part, split.score_part
        parts = RewardOracle.from_parts(split.kind, *given, split.seed)
        for part, expected in zip((parts.fit_part, parts.score_part), given):
            assert np.array_equal(part.X, expected.X) and np.array_equal(part.y, expected.y)

    def test_from_parts_scores_like_the_split_it_is_given(self):
        split = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(seed=8, q=0.8), seed=9)
        parts = RewardOracle.from_parts(split.kind, split.fit_part, split.score_part, split.seed)
        for subset in ((1,), (1, 3), (2, 3, 5), (1, 3)):
            assert parts(subset) == split(subset)
        assert (parts.fit_count, parts.hit_count) == (3, 1)


class TestRewardOracleScore:
    """``score`` equals one ``holdout_accuracy`` per subset, and counts like one call per subset."""

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_score_equals_one_at_a_time_holdout_accuracy(self, kind, data):
        matrix = data.draw(st.sampled_from(WIDE_MATRICES))
        batched, sequential = RewardOracle(kind, matrix, seed=5), RewardOracle(kind, matrix, seed=5)
        for batch in (data.draw(batches()), data.draw(batches())):  # the second may hit what the first scored
            rewards = batched.score(batch)
            for subset, reward in zip(batch, rewards):
                cols = [i - 1 for i in subset]
                assert reward == classifiers.holdout_accuracy(
                    kind, project(batched.fit_part, cols), project(batched.score_part, cols), batched.seed
                )
            assert rewards == [sequential(subset) for subset in batch]
            assert (batched.fit_count, batched.hit_count) == (sequential.fit_count, sequential.hit_count)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_interleaved_scores_and_calls_equal_one_call_per_subset(self, kind, data):
        # a small pool, so batches repeat subsets and reach ones an earlier step memoized
        subset = st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True).map(sorted).map(tuple)
        pick = st.sampled_from(data.draw(st.lists(subset, min_size=1, max_size=5, unique=True)))
        steps = data.draw(st.lists(st.one_of(pick, st.lists(pick, max_size=6)), min_size=1, max_size=8))
        matrix = planted_matrix(seed=2, n=200, q=0.8, informative=(0, 3))
        mixed, fresh = RewardOracle(kind, matrix, seed=5), RewardOracle(kind, matrix, seed=5)
        requested = []
        for step in steps:  # a list is one ``score`` batch, a tuple one ``__call__``
            batch = step if isinstance(step, list) else [step]
            got = mixed.score(batch) if isinstance(step, list) else [mixed(step)]
            assert got == [fresh(subset) for subset in batch]
            assert (mixed.fit_count, mixed.hit_count) == (fresh.fit_count, fresh.hit_count)
            requested += batch
        assert (mixed.fit_count, mixed.hit_count) == (len(set(requested)), len(requested) - len(set(requested)))

    def test_repeats_in_a_batch_count_one_fit_then_hits(self):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(), seed=3)
        rewards = oracle.score([(2, 4), (1,), (2, 4), (2, 4), (1,)])
        assert rewards[0] == rewards[2] == rewards[3] and rewards[1] == rewards[4]
        assert (oracle.fit_count, oracle.hit_count) == (2, 3)
        assert oracle.score([]) == [] and (oracle.fit_count, oracle.hit_count) == (2, 3)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
    def test_pass_count_is_bounded_passes_of_misses(self, kind, monkeypatch):
        matrix = planted_matrix()  # 400 rows: passes of three sets
        monkeypatch.setattr(classifiers, "_PASS_ENTRIES", 3 * matrix.n_samples + 2)
        oracle = RewardOracle(kind, matrix, seed=3)
        with mock.patch.object(classifiers, "_lazy_tree_predict", wraps=classifiers._lazy_tree_predict) as lazy:
            oracle.score([(1,), (2,), (1,), (3,), (4,), (5,), (6,), (2, 7)])  # seven misses
            assert oracle.pass_count == (3 if kind.name == "dt" else 7)
            oracle.score([(1,), (2, 7)])
            assert oracle.pass_count == (3 if kind.name == "dt" else 7)
        assert lazy.call_count == (3 if kind.name == "dt" else 0)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), bad=st.sampled_from([(), (4, 2), (3, 3), (0, 3), (2, 81)]))
    def test_bad_subset_anywhere_raises_before_any_fit(self, data, bad):
        kind, matrix = ClassifierKind.decision_tree(), WIDE_MATRICES[0]
        oracle, twin = RewardOracle(kind, matrix, seed=5), RewardOracle(kind, matrix, seed=5)
        for o in (oracle, twin):
            o.score([(1, 2), (3,)])
        good = data.draw(batches())
        batch = list(good)
        batch.insert(data.draw(st.integers(0, len(good))), bad)
        with pytest.raises(ValueError) as one:
            oracle(bad)
        with mock.patch.object(classifiers, "holdout_accuracies", wraps=classifiers.holdout_accuracies) as spy:
            with pytest.raises(ValueError) as batched:
                oracle.score(batch)
        assert str(batched.value) == str(one.value)
        assert spy.call_count == 0
        assert (oracle.fit_count, oracle.hit_count) == (twin.fit_count, twin.hit_count) == (2, 0)
        # the memo is unchanged: the batch's good subsets score as if it had never been seen
        assert oracle.score(good) == twin.score(good)
        assert (oracle.fit_count, oracle.hit_count) == (twin.fit_count, twin.hit_count)


class TestPassMemory:
    """A batched DT pass allocates about its entries' codes, never a float table or a dense code space past them."""

    dt = ClassifierKind.decision_tree()

    def test_select_dt_shape(self):
        # 2000 x 100, one episode's ten nested states; the table as float64 alone is 1.5 MiB
        matrix = planted_matrix(seed=5, n=2000, features=100, informative=tuple(range(10)), q=0.8)
        order = np.random.default_rng(2).permutation(np.arange(1, 101))[:10]
        oracle, kept, _ = traced(lambda: RewardOracle(self.dt, matrix, seed=1))
        assert kept < 2**18  # no copy of the matrix's rows, stacked or float
        peak = traced(lambda: oracle.score([tuple(sorted(order[:k].tolist())) for k in range(1, 11)]))[2]
        assert peak < 1.25 * 2**20
        assert oracle.fit_count == 10

    def test_select_dt_warm_up_shape(self):
        # a select-dt warm-up's one pass: seven episodes of nested states, 70 sets of widths 1-10 over
        # 2000 rows (140k entries). It peaks near 3.0 MiB; with intp dedupe inverses and label codes
        # (8 bytes an entry, not 4) it peaked near 4.0 MiB
        matrix = planted_matrix(seed=5, n=2000, features=100, informative=tuple(range(10)), q=0.8)
        rng = np.random.default_rng(3)
        subsets = []
        for _ in range(7):
            order = (rng.permutation(100)[:10] + 1).tolist()
            subsets += [tuple(sorted(order[:k])) for k in range(1, 11)]
        oracle = RewardOracle(self.dt, matrix, seed=1)
        peak = traced(lambda: oracle.score(subsets))[2]
        assert (oracle.fit_count, oracle.pass_count) == (70, 1)
        assert peak < 3.5 * 2**20

    def test_worst_run_at_the_table_bound(self):
        # ten nested sets over 2000 rows whose union is exactly the subcube table's 10 columns, each
        # with unseen patterns: the first column is 0 in every fit row and 1 in every score row, so
        # every score row is unseen in every set (about 700 queries). It peaks near 1.0 MiB
        rng = np.random.default_rng(7)
        X = rng.integers(0, 2, size=(2000, 100), dtype=np.uint8)
        order = rng.permutation(100)[:10]
        X[:1600, order[0]], X[1600:, order[0]] = 0, 1
        matrix = matrix_from_rows(X, rng.integers(0, 2, size=2000))
        oracle = RewardOracle.from_parts(self.dt, matrix.rows(np.arange(1600)), matrix.rows(np.arange(1600, 2000)), 1)
        subsets = [tuple(sorted((order[:k] + 1).tolist())) for k in range(1, 11)]
        with mock.patch.object(classifiers, "_grow_levels", side_effect=AssertionError):
            peak = traced(lambda: oracle.score(subsets))[2]
        assert (oracle.fit_count, oracle.pass_count) == (10, 1)
        assert peak < 1.25 * 2**20

    def test_an_oracle_keeps_its_split_as_row_indices(self):
        # its fit and score parts as copies would keep 195 KiB; 2000 row indices are 16 KiB
        matrix = planted_matrix(seed=5, n=2000, features=100, informative=tuple(range(10)), q=0.8)
        oracle, kept, _ = traced(lambda: RewardOracle(self.dt, matrix, seed=1))
        assert oracle.matrix is matrix
        assert kept < 32 * 2**10

    def test_a_long_score_call_peaks_at_one_pass(self):
        # four passes' worth of distinct sets of ten: each pass holds at most _PASS_ENTRIES (row, set) entries
        matrix = planted_matrix(seed=5, n=2000, features=100, informative=tuple(range(10)), q=0.8)
        per_pass = classifiers.sets_per_pass(self.dt, matrix.n_samples)
        rng = np.random.default_rng(4)
        subsets = [tuple(sorted((rng.choice(100, size=10, replace=False) + 1).tolist())) for _ in range(4 * per_pass)]
        assert len(set(subsets)) == len(subsets)
        one, four = RewardOracle(self.dt, matrix, seed=1), RewardOracle(self.dt, matrix, seed=1)
        one_peak = traced(lambda: one.score(subsets[:per_pass]))[2]
        rewards, _, four_peak = traced(lambda: four.score(subsets))
        assert (one.pass_count, four.pass_count) == (1, 4)
        assert four_peak < 1.25 * one_peak
        for subset, reward in zip(subsets, rewards):
            cols = [i - 1 for i in subset]
            assert reward == classifiers.holdout_accuracy(
                self.dt, project(four.fit_part, cols), project(four.score_part, cols), four.seed
            )

    @pytest.mark.parametrize("width", [24, 30])
    def test_one_wide_set_sorts_its_codes(self, width):
        # 2000 rows hold 2**width possible codes; marking them densely would take 2**width bytes and more
        oracle = RewardOracle(self.dt, planted_matrix(seed=6, n=2000, features=width, q=0.8), seed=1)
        assert traced(lambda: oracle.score([tuple(range(1, width + 1))]))[2] < 4 * 2**20
