import itertools

import numpy as np
import pytest

from rlselect import classifiers
from rlselect.classifiers import ClassifierKind
from rlselect.dataset import SyntheticSpec, generate_synthetic, project
from rlselect.env import FeatureEnv, RewardOracle, insert_sorted, reset


def planted_matrix(seed=0, n=400, features=8, informative=(0,), q=1.0):
    return generate_synthetic(SyntheticSpec(n, features, informative, q, seed))


class TestEpisodeState:
    def test_reset_is_empty(self):
        assert reset() == ()
        assert reset() == reset()

    def test_insert_keeps_sorted(self):
        assert insert_sorted((5, 9), 3) == (3, 5, 9)
        assert insert_sorted((), 4) == (4,)

    def test_duplicate_insert_rejected(self):
        with pytest.raises(ValueError):
            insert_sorted((2, 4), 4)


class TestFeatureEnv:
    def _env(self, subset_size=3):
        oracle = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(), seed=1)
        return FeatureEnv(8, subset_size, oracle)

    def test_episode_terminates_at_subset_size(self):
        env = self._env(3)
        state = env.reset()
        for step in range(3):
            state, reward, done = env.step(state, step + 2)
            assert 0.0 <= reward <= 1.0
            assert done == (step == 2)
        assert len(state) == 3

    def test_step_on_full_state_rejected(self):
        env = self._env(1)
        state, _, done = env.step(env.reset(), 1)
        assert done
        with pytest.raises(ValueError):
            env.step(state, 2)

    def test_duplicate_action_rejected(self):
        env = self._env(3)
        state, _, _ = env.step(env.reset(), 5)
        with pytest.raises(ValueError):
            env.step(state, 5)

    def test_selection_order_invariance(self):
        env = self._env(3)
        finals = []
        for order in itertools.permutations((2, 6, 7)):
            state = env.reset()
            for action in order:
                state, reward, done = env.step(state, action)
            finals.append((state, reward))
        states, rewards = zip(*finals)
        assert len(set(states)) == 1
        assert len(set(rewards)) == 1

    def test_transition_count_and_prefix_length(self):
        env = self._env(4)
        state = env.reset()
        for t in range(1, 5):
            assert len(state) == t - 1
            state, _, done = env.step(state, t)
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

    def test_rewards_identical_within_run(self):
        oracle = RewardOracle(ClassifierKind.knn(k=3), planted_matrix(q=0.8), seed=7)
        values = {oracle((2, 5)) for _ in range(5)}
        assert len(values) == 1

    def test_from_parts_scores_like_the_split_it_is_given(self):
        split = RewardOracle(ClassifierKind.decision_tree(), planted_matrix(seed=8, q=0.8), seed=9)
        parts = RewardOracle.from_parts(split.kind, split.fit_part, split.score_part, split.seed)
        for subset in ((1,), (1, 3), (2, 3, 5), (1, 3)):
            assert parts(subset) == split(subset)
        assert (parts.fit_count, parts.hit_count) == (3, 1)
