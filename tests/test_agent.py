import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlselect import net
from rlselect.agent import (
    AgentConfig,
    EpsilonSchedule,
    ReplayMemory,
    Transition,
    ddqn_target,
    ddqn_targets,
    masked_argmax,
    select_action,
    train_step,
)
from rlselect.net import NetworkConfig, OptimizerState


class TestEpsilonSchedule:
    def test_endpoints(self):
        sched = EpsilonSchedule(total_episodes=100, p=0.9)
        assert sched.epsilon(0) == 1.0
        assert sched.epsilon(100) == pytest.approx(0.1, abs=1e-12)

    def test_midpoint(self):
        sched = EpsilonSchedule(total_episodes=1000, p=0.8)
        assert sched.epsilon(500) == pytest.approx(0.6, abs=1e-12)

    def test_linear_and_monotone(self):
        sched = EpsilonSchedule(total_episodes=200, p=0.7)
        values = [sched.epsilon(e) for e in range(201)]
        diffs = np.diff(values)
        assert np.all(diffs <= 0)
        assert np.allclose(diffs, diffs[0], atol=1e-12)

    def test_out_of_range_episode(self):
        sched = EpsilonSchedule(total_episodes=10, p=0.5)
        with pytest.raises(ValueError):
            sched.epsilon(11)
        with pytest.raises(ValueError):
            sched.epsilon(-1)


class TestTransition:
    def test_next_state_must_extend_prev(self):
        with pytest.raises(ValueError):
            Transition((1,), 3, 0.5, (1, 2), False)

    def test_repeated_action_rejected(self):
        with pytest.raises(ValueError, match="feature 2 already selected"):
            Transition((2,), 2, 0.5, (2, 2), False)

    def test_sorted_insert_enforced(self):
        t = Transition((2, 5), 3, 0.5, (2, 3, 5), False)
        assert len(t.next_state) == len(t.prev_state) + 1

    def test_reward_range(self):
        with pytest.raises(ValueError):
            Transition((), 1, 1.5, (1,), True)

    @pytest.mark.parametrize("action, state", [(2.0, (2,)), (np.float64(3.0), (3,)), (True, (1,))],
                             ids=["float", "numpy-float", "bool"])
    def test_non_integer_action_rejected_naming_it(self, action, state):
        with pytest.raises(ValueError, match=rf"^action {re.escape(repr(action))} is not an integer$"):
            Transition((), action, 0.5, state, True)

    def test_numpy_integer_action_accepted(self):
        t = Transition((1, 5), np.int64(3), 0.5, (1, 3, 5), False)
        assert t.next_state == (1, 3, 5)

    def test_slotted_and_still_checked(self):
        # a replay holds up to 200k of them: slots, not a per-instance dict
        t = Transition((1,), 2, 0.5, (1, 2), False)
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.reward = 0.25
        with pytest.raises(ValueError, match="next_state"):
            Transition((1,), 2, 0.5, (2, 3), False)


def _mk_transition(i):
    return Transition((), i, 0.5, (i,), False)


class TestReplayMemory:
    def test_fifo_eviction(self):
        mem = ReplayMemory(capacity=2)
        a, b, c = _mk_transition(1), _mk_transition(2), _mk_transition(3)
        mem.push(a)
        mem.push(b)
        mem.push(c)
        assert mem.contents() == [b, c]

    def test_underfilled_sampling_rejected(self):
        mem = ReplayMemory(capacity=10)
        mem.push(_mk_transition(1))
        with pytest.raises(ValueError):
            mem.sample(2, np.random.default_rng(0))

    def test_sampling_uniform_within_three_sigma(self):
        mem = ReplayMemory(capacity=50)
        for i in range(1, 11):
            mem.push(_mk_transition(i))
        rng = np.random.default_rng(12345)
        draws = 10_000
        actions = []
        for _ in range(draws // 10):
            actions.extend(t.action for t in mem.sample(10, rng))
        counts = np.bincount(actions, minlength=11)[1:]
        expect = draws / 10
        sigma = np.sqrt(draws * 0.1 * 0.9)
        assert np.all(np.abs(counts - expect) <= 3 * sigma)

    def test_insertion_counter(self):
        mem = ReplayMemory(capacity=2)
        for i in range(1, 6):
            mem.push(_mk_transition(i))
        assert mem.inserted == 5
        assert len(mem) == 2


class TestSelectAction:
    def _params(self, seed=0):
        return net.init(NetworkConfig.for_features(6, 3, 4, "rnn"), seed)

    def test_greedy_is_masked_argmax(self):
        params = self._params()
        rng = np.random.default_rng(0)
        scores = net.forward(params, ())
        expected = int(np.argmax(scores)) + 1
        assert select_action((), 0.0, params, rng) == expected

    @pytest.mark.parametrize("cell", net.CELLS)
    def test_greedy_pick_in_a_workspace_equals_one_without(self, cell):
        params = net.init(NetworkConfig.for_features(16, 8, 32, cell), 2)
        workspace = net.Workspace()
        net.forward_batch(params, [(1, 2, 3, 4, 5), (6,), ()], workspace)  # larger buffers, stale contents
        for state in [(), (3,), (1, 5, 9), (2, 4, 6, 8, 10, 12), (3,)]:
            assert np.array_equal(net.forward(params, state, workspace), net.forward(params, state))
            rng = np.random.default_rng(1)
            assert select_action(state, 0.0, params, rng, workspace) == select_action(state, 0.0, params, rng)

    def test_greedy_falls_back_to_second_highest(self):
        scores = np.array([0.2, 0.9, 0.5])
        assert masked_argmax(scores, ()) == 2
        assert masked_argmax(scores, (2,)) == 3
        assert masked_argmax(scores, (2, 3)) == 1

    def test_tie_breaks_to_lower_index(self):
        scores = np.array([0.5, 0.5, 0.1])
        assert masked_argmax(scores, ()) == 1
        assert masked_argmax(scores, (1,)) == 2

    def test_never_returns_selected_feature_exhaustive(self):
        # every state of size <= 3 over 6 features, both policies
        params = self._params(3)
        rng = np.random.default_rng(7)
        features = range(1, 7)
        states = [()]
        for size in (1, 2, 3):
            states.extend(itertools.combinations(features, size))
        for state in states:
            greedy = select_action(state, 0.0, params, rng)
            assert greedy not in state
            for _ in range(10):
                explored = select_action(state, 1.0, params, rng)
                assert explored not in state

    def test_full_state_rejected(self):
        params = self._params()
        with pytest.raises(ValueError):
            select_action((1, 2, 3, 4, 5, 6), 0.5, params, np.random.default_rng(0))

    def test_uniform_exploration_within_three_sigma(self):
        params = self._params()
        rng = np.random.default_rng(99)
        state = (2, 5)
        draws = 10_000
        counts = {i: 0 for i in (1, 3, 4, 6)}
        for _ in range(draws):
            counts[select_action(state, 1.0, params, rng)] += 1
        expect = draws / 4
        sigma = np.sqrt(draws * 0.25 * 0.75)
        for count in counts.values():
            assert abs(count - expect) <= 3 * sigma

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_uniform_pick_equals_indexing_the_unselected_list(self, data):
        # the walk to the k-th unselected feature takes the one draw that indexed the list of them
        n = data.draw(st.integers(1, 40))
        state = tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=n - 1))))
        seed = data.draw(st.integers(0, 2**32 - 1))
        params = net.init(NetworkConfig.for_features(n, 2, 2, "rnn"), 0)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        reference.random()  # the epsilon draw
        choices = [i for i in range(1, n + 1) if i not in state]
        assert select_action(state, 1.0, params, rng) == choices[reference.integers(0, len(choices))]
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("state, message", [
        ((5, 5, 200), "sorted strictly ascending"),
        ((3, 1), "sorted strictly ascending"),
        ((0, 4), "state index 0 outside 1..100"),
        ((7, 200), "state index 200 outside 1..100"),
        ((2.5,), "not an integer"),
        ((True, 4), "not an integer"),
    ])
    def test_uniform_pick_checks_its_state_like_a_greedy_pick(self, state, message):
        params = net.init(NetworkConfig.for_features(100, 2, 2, "rnn"), 0)
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError, match=message):
                select_action(state, eps, params, np.random.default_rng(0))


class TestDdqnTarget:
    def test_terminal_returns_reward(self):
        t = Transition((1, 2), 3, 0.93, (1, 2, 3), True)
        boom = lambda s: (_ for _ in ()).throw(AssertionError("must not be called"))
        assert ddqn_target(t, boom, boom, gamma=0.99) == 0.93

    def test_gamma_zero_returns_reward(self):
        t = Transition((), 1, 0.5, (1,), False)
        q = lambda s: np.array([0.7, 0.2, 0.4])
        assert ddqn_target(t, q, q, gamma=0.0) == 0.5

    def test_hand_computed_case(self):
        # argmax of theta2 over unmasked features is feature 2 (0.5);
        # theta1 evaluates it at 0.4 -> 0.9 + 0.99 * 0.4 = 1.296
        t = Transition((), 1, 0.9, (1,), False)
        q_online = lambda s: np.array([0.0, 0.4, 0.0])
        q_target = lambda s: np.array([0.1, 0.5, 0.3])
        got = ddqn_target(t, q_online, q_target, gamma=0.99, convention="paper")
        assert got == 0.9 + 0.99 * 0.4

    def test_masking_excludes_next_state_members(self):
        # feature 2's 0.9 would win but belongs to next_state; fall to feature 3
        t = Transition((2,), 1, 0.8, (1, 2), False)
        q_target = lambda s: np.array([0.5, 0.9, 0.6])
        q_online = lambda s: np.array([0.1, 0.2, 0.3])
        got = ddqn_target(t, q_online, q_target, gamma=1.0, convention="paper")
        assert got == 0.8 + 0.3

    def test_argmax_tie_breaks_low(self):
        t = Transition((), 3, 0.1, (3,), False)
        q_target = lambda s: np.array([0.5, 0.5, 0.0])
        q_online = lambda s: np.array([10.0, 20.0, 30.0])
        got = ddqn_target(t, q_online, q_target, gamma=1.0, convention="paper")
        assert got == 0.1 + 10.0

    def test_standard_convention_swaps_roles(self):
        t = Transition((), 1, 0.9, (1,), False)
        q_online = lambda s: np.array([0.0, 0.4, 0.0])
        q_target = lambda s: np.array([0.1, 0.5, 0.3])
        # argmax under online (feature 2), evaluated by target (0.5)
        got = ddqn_target(t, q_online, q_target, gamma=0.99, convention="standard")
        assert got == 0.9 + 0.99 * 0.5

    def test_equal_networks_reduce_to_single_network_target(self):
        params = net.init(NetworkConfig.for_features(5, 3, 4, "gru"), 5)
        q = lambda s: net.forward(params, s)
        t = Transition((1,), 4, 0.6, (1, 4), False)
        got = ddqn_target(t, q, q, gamma=0.9)
        scores = q((1, 4)).copy()
        scores[0] = scores[3] = -np.inf
        assert got == pytest.approx(0.6 + 0.9 * scores.max())


class TestBatchedTargets:
    def _batch(self, rng, n=6, size=24):
        batch = []
        for _ in range(size):
            state = tuple(sorted(rng.choice(np.arange(1, n + 1), size=int(rng.integers(0, 4)), replace=False).tolist()))
            action = int(rng.choice([i for i in range(1, n + 1) if i not in state]))
            nxt = tuple(sorted(state + (action,)))
            batch.append(Transition(state, action, float(rng.uniform(0, 1)), nxt, len(nxt) == 4))
        return batch

    @pytest.mark.parametrize("convention", ["paper", "standard"])
    @pytest.mark.parametrize("gamma", [0.0, 0.7])
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_equal_per_transition_targets(self, convention, gamma, cell):
        rng = np.random.default_rng(31)
        cfg = NetworkConfig.for_features(6, 3, 5, cell)
        theta1, theta2 = net.init(cfg, 1), net.init(cfg, 2)
        batch = self._batch(rng)
        assert any(tr.terminal for tr in batch) and not all(tr.terminal for tr in batch)
        got = ddqn_targets(batch, theta1, theta2, gamma, convention)
        q_online = lambda s: net.forward(theta1, s)
        q_target = lambda s: net.forward(theta2, s)
        want = [ddqn_target(tr, q_online, q_target, gamma, convention) for tr in batch]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        for tr, value in zip(batch, got):
            if tr.terminal or gamma == 0.0:
                assert value == tr.reward

    def test_all_terminal_batch_skips_the_network(self):
        batch = [Transition((1,), 2, 0.25, (1, 2), True)]
        assert ddqn_targets(batch, None, None, 0.9).tolist() == [0.25]

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError):
            ddqn_targets([], None, None, 0.9, convention="other")


class TestTrainStep:
    def _setup(self, seed=0):
        cfg = NetworkConfig.for_features(5, 3, 6, "gru")
        theta1 = net.init(cfg, seed)
        theta2 = theta1.copy()
        opt = OptimizerState(total_steps=1000, base_rate=0.05)
        agent_cfg = AgentConfig(subset_size=3, total_episodes=10, batch_size=4,
                                warmup_steps=1, gamma=0.9)
        return theta1, theta2, opt, agent_cfg

    def _fill(self, memory, rng):
        for _ in range(20):
            k = int(rng.integers(0, 3))
            state = tuple(sorted(rng.choice(np.arange(1, 6), size=k, replace=False).tolist()))
            remaining = [i for i in range(1, 6) if i not in state]
            action = int(remaining[rng.integers(0, len(remaining))])
            nxt = tuple(sorted(state + (action,)))
            memory.push(Transition(state, action, float(rng.uniform(0, 1)), nxt, len(nxt) == 3))

    def test_update_moves_q_toward_target(self):
        theta1, theta2, opt, cfg = self._setup()
        memory = ReplayMemory(100)
        t = Transition((), 2, 0.9, (2,), True)
        for _ in range(cfg.batch_size):
            memory.push(t)
        before = float(net.forward(theta1, ())[1])
        train_step(memory, theta1, theta2, opt, cfg, np.random.default_rng(1))
        after = float(net.forward(theta1, ())[1])
        assert abs(after - 0.9) < abs(before - 0.9)

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            theta1, theta2, opt, cfg = self._setup(seed=4)
            memory = ReplayMemory(100)
            self._fill(memory, np.random.default_rng(8))
            train_step(memory, theta1, theta2, opt, cfg, np.random.default_rng(99))
            results.append(theta1)
        for name in results[0].tensors:
            assert np.array_equal(results[0].tensors[name], results[1].tensors[name])

    def test_zero_residual_batch_leaves_params(self):
        theta1, theta2, opt, cfg = self._setup()
        memory = ReplayMemory(100)
        state, action = (1,), 3
        target = float(net.forward(theta1, state)[action - 1])
        # terminal transition whose reward already equals the prediction
        reward = min(max(target, 0.0), 1.0)
        if reward != target:
            pytest.skip("init score fell outside [0,1]; not representable as a reward")
        t = Transition(state, action, reward, (1, 3), True)
        for _ in range(cfg.batch_size):
            memory.push(t)
        before = theta1.copy()
        train_step(memory, theta1, theta2, opt, cfg, np.random.default_rng(0))
        for name in before.tensors:
            assert np.array_equal(theta1.tensors[name], before.tensors[name])


class TestWorkspace:
    @pytest.mark.parametrize("cell", net.CELLS)
    def test_warmed_train_step_allocates_under_one_mib(self, cell):
        # the select-net shape: 16 features, H = 256, batches of 32, subset 4, gamma 0.5
        rng = np.random.default_rng(3)
        memory = ReplayMemory(1000)
        for _ in range(50):  # whole episodes; the fourth pick ends one
            picks = rng.choice(np.arange(1, 17), size=4, replace=False).tolist()
            for t in range(4):
                prev, nxt = tuple(sorted(picks[:t])), tuple(sorted(picks[: t + 1]))
                memory.push(Transition(prev, picks[t], float(rng.random()), nxt, t == 3))
        theta1 = net.init(NetworkConfig.for_features(16, 8, 256, cell), 1)
        theta2 = theta1.copy()
        opt = OptimizerState(total_steps=1000, base_rate=1e-3)
        cfg = AgentConfig(subset_size=4, total_episodes=10, batch_size=32, gamma=0.5)
        workspace, step_rng = net.Workspace(), np.random.default_rng(5)
        for _ in range(3):
            train_step(memory, theta1, theta2, opt, cfg, step_rng, workspace)
        tracemalloc.start()
        try:
            train_step(memory, theta1, theta2, opt, cfg, step_rng, workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_select_dt_train_step_workspace_keeps_no_rnn_cache(self):
        # the select-dt shape: 100 features, E = 8, RNN H = 256, batches of 32, subset 10, gamma 0.
        # Its buffers: the h tape and BPTT's pre-activation gradients (10 x 32 x 256 each, 640 KiB),
        # the recurrent and output weight gradients (512 + 200 KiB), seven (32, 256) step arrays
        # (448 KiB) and small ones, 2.47 MiB in all; a per-step tanh cache beside the h tape
        # would add another 640 KiB
        rng = np.random.default_rng(3)
        memory = ReplayMemory(1000)
        for _ in range(10):
            picks = (rng.permutation(100)[:10] + 1).tolist()
            for t in range(10):
                prev, nxt = tuple(sorted(picks[:t])), tuple(sorted(picks[: t + 1]))
                memory.push(Transition(prev, picks[t], float(rng.random()), nxt, t == 9))
        theta1 = net.init(NetworkConfig.for_features(100, 8, 256, "rnn"), 1)
        opt = OptimizerState(total_steps=1000, base_rate=1e-3)
        cfg = AgentConfig(subset_size=10, total_episodes=10, batch_size=32, gamma=0.0)
        workspace, step_rng = net.Workspace(), np.random.default_rng(5)
        for _ in range(4):
            train_step(memory, theta1, None, opt, cfg, step_rng, workspace)
        buffers = workspace._buffers
        assert "cache" not in buffers
        assert buffers["hs"].size == 10 * 32 * 256  # every batch held a state of nine picks
        assert sum(buf.nbytes for buf in buffers.values()) < 2.75 * 2**20


class TestAgentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(subset_size=0, total_episodes=10)
        with pytest.raises(ValueError):
            AgentConfig(subset_size=2, total_episodes=10, gamma=1.5)
        with pytest.raises(ValueError):
            AgentConfig(subset_size=2, total_episodes=10, ddqn_convention="mirror")
