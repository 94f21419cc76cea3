import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlselect import net
from rlselect.net import NetworkConfig, OptimizerState

from conftest import finite_difference_batch_gradients, finite_difference_gradients, max_relative_error


def small_config(rng, cell, head):
    n = int(rng.integers(3, 7))
    return NetworkConfig(
        vocab_size=n + 1,
        embed_dim=int(rng.integers(2, 5)),
        hidden_dim=int(rng.integers(2, 6)),
        cell=cell,
        output_dim=n,
        head=head,
    )


def random_state(rng, n, max_len=4):
    k = int(rng.integers(0, min(max_len, n) + 1))
    return tuple(sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()))


class TestConfig:
    def test_output_dim_must_match_vocab(self):
        with pytest.raises(ValueError):
            NetworkConfig(vocab_size=5, embed_dim=2, hidden_dim=2, cell="rnn", output_dim=3)

    def test_unknown_cell(self):
        with pytest.raises(ValueError):
            NetworkConfig(vocab_size=5, embed_dim=2, hidden_dim=2, cell="transformer", output_dim=4)


class TestInit:
    def test_deterministic(self):
        cfg = NetworkConfig.for_features(6, 4, 5, "lstm")
        a, b = net.init(cfg, 12), net.init(cfg, 12)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_bounds_and_biases(self):
        cfg = NetworkConfig.for_features(6, 4, 5, "gru")
        params = net.init(cfg, 0)
        assert np.all(np.abs(params.tensors["embed"]) <= 1 / np.sqrt(4))
        assert np.all(np.abs(params.tensors["w_h"]) <= 1 / np.sqrt(5))
        assert np.all(params.tensors["b"] == 0.0)
        assert np.all(params.tensors["b_out"] == 0.0)

    def test_lstm_forget_gate_bias(self):
        cfg = NetworkConfig.for_features(6, 4, 5, "lstm")
        b = net.init(cfg, 0).tensors["b"]
        h = cfg.hidden_dim
        assert np.all(b[h : 2 * h] == 1.0)
        assert np.all(b[:h] == 0.0) and np.all(b[2 * h :] == 0.0)


class TestForward:
    def test_empty_state_is_valid(self):
        cfg = NetworkConfig.for_features(5, 3, 4, "rnn")
        params = net.init(cfg, 1)
        scores = net.forward(params, ())
        assert scores.shape == (5,)
        assert np.all(np.isfinite(scores))

    def test_softmax_head_normalizes(self):
        cfg = NetworkConfig.for_features(7, 3, 4, "gru", head="softmax")
        params = net.init(cfg, 2)
        scores = net.forward(params, (2, 5))
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(scores > 0)

    def test_repeated_calls_bit_identical(self):
        cfg = NetworkConfig.for_features(6, 3, 4, "lstm")
        params = net.init(cfg, 3)
        a = net.forward(params, (1, 4))
        b = net.forward(params, (1, 4))
        assert np.array_equal(a, b)

    def test_unsorted_state_rejected(self):
        cfg = NetworkConfig.for_features(6, 3, 4, "rnn")
        params = net.init(cfg, 4)
        with pytest.raises(ValueError):
            net.forward(params, (4, 1))
        with pytest.raises(ValueError):
            net.forward(params, (2, 2))

    def test_zero_token_forbidden_in_state(self):
        cfg = NetworkConfig.for_features(6, 3, 4, "rnn")
        params = net.init(cfg, 4)
        with pytest.raises(ValueError):
            net.forward(params, (0, 2))


class TestBackward:
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    @pytest.mark.parametrize("head", ["linear", "softmax"])
    def test_matches_finite_differences(self, cell, head):
        rng = np.random.default_rng(hash((cell, head)) % 2**32)
        for trial in range(5):
            cfg = small_config(rng, cell, head)
            params = net.init(cfg, int(rng.integers(0, 10_000)))
            state = random_state(rng, cfg.n_features)
            action = int(rng.integers(1, cfg.n_features + 1))
            target = float(rng.normal())
            analytic = net.backward(params, state, action, target)
            numeric = finite_difference_gradients(params, state, action, target)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_zero_residual_gives_zero_gradients(self):
        cfg = NetworkConfig.for_features(5, 3, 4, "gru")
        params = net.init(cfg, 7)
        state = (2, 4)
        action = 3
        target = float(net.forward(params, state)[action - 1])
        grads = net.backward(params, state, action, target)
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_unused_embedding_rows_get_zero_gradient(self):
        cfg = NetworkConfig.for_features(6, 3, 4, "lstm")
        params = net.init(cfg, 8)
        state = (1, 5)
        grads = net.backward(params, state, action=2, target=0.9)
        used = {0, 1, 5}
        for token in range(cfg.vocab_size):
            row = grads["embed"][token]
            if token in used:
                assert np.any(row != 0.0)
            else:
                assert np.all(row == 0.0)

    def test_non_finite_target_rejected(self):
        cfg = NetworkConfig.for_features(5, 3, 4, "rnn")
        params = net.init(cfg, 9)
        with pytest.raises(ValueError):
            net.backward(params, (), 1, float("nan"))


CELL_HEADS = [(cell, head) for cell in net.CELLS for head in net.HEADS]


def max_tensor_relative_error(a, b):
    """Largest |a - b| of any tensor, relative to that tensor's largest |b|."""
    return max(float(np.abs(a[k] - b[k]).max() / max(np.abs(b[k]).max(), 1e-300)) for k in b)


@st.composite
def batches(draw):
    n = draw(st.integers(3, 7))
    cfg = NetworkConfig(
        vocab_size=n + 1, embed_dim=draw(st.integers(1, 4)), hidden_dim=draw(st.integers(1, 6)),
        cell=draw(st.sampled_from(net.CELLS)), output_dim=n, head=draw(st.sampled_from(net.HEADS)),
    )
    subsets = st.lists(st.integers(1, n), unique=True, max_size=min(n, 5)).map(lambda s: tuple(sorted(s)))
    states = draw(st.lists(subsets, min_size=1, max_size=6))
    actions = draw(st.lists(st.integers(1, n), min_size=len(states), max_size=len(states)))
    targets = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(states), max_size=len(states)))
    return net.init(cfg, draw(st.integers(0, 2**31 - 1))), states, actions, targets


class TestBatch:
    # mixed lengths, the empty state, and feature 2 repeated across rows
    STATES = [(2, 4), (), (1, 2, 3, 5), (2,)]
    ACTIONS = [1, 3, 4, 2]
    TARGETS = [0.3, -0.4, 0.9, 0.1]

    @pytest.mark.parametrize("cell, head", CELL_HEADS)
    def test_mean_gradient_matches_finite_differences(self, cell, head):
        cfg = NetworkConfig.for_features(5, 3, 4, cell, head)
        params = net.init(cfg, 17)
        analytic = net.backward(params, self.STATES, self.ACTIONS, self.TARGETS)
        numeric = finite_difference_batch_gradients(params, self.STATES, self.ACTIONS, self.TARGETS)
        assert max_relative_error(analytic, numeric) < 1e-4

    @settings(max_examples=150, deadline=None)
    @given(batches())
    def test_batch_equals_mean_of_single_transitions(self, batch):
        params, states, actions, targets = batch
        singles = [net.backward(params, s, a, t) for s, a, t in zip(states, actions, targets)]
        mean = {k: sum(g[k] for g in singles) / len(singles) for k in params.tensors}
        batched = net.backward(params, states, actions, targets)
        assert list(batched) == list(params.tensors)
        assert max_tensor_relative_error(batched, mean) <= 1e-12
        rows = net.forward_batch(params, states)
        for row, state in zip(rows, states):
            np.testing.assert_allclose(row, net.forward(params, state), rtol=1e-12, atol=1e-15)

    def test_malformed_batch_rejected(self):
        params = net.init(NetworkConfig.for_features(5, 3, 4, "gru"), 3)
        with pytest.raises(ValueError, match="batch sizes differ"):
            net.backward(params, [(1,), (2,)], [1], [0.5])
        with pytest.raises(ValueError):
            net.backward(params, [], [], [])
        with pytest.raises(ValueError):
            net.forward_batch(params, [])
        with pytest.raises(ValueError):
            net.backward(params, [(1,), (2,)], [1, 6], [0.5, 0.5])
        with pytest.raises(ValueError):
            net.backward(params, (1,), 2.0, 0.5)


class TestStep:
    def _setup(self):
        cfg = NetworkConfig.for_features(5, 3, 4, "rnn")
        params = net.init(cfg, 11)
        return params

    def test_zero_gradient_leaves_params(self):
        params = self._setup()
        before = params.copy()
        opt = OptimizerState(total_steps=10, base_rate=0.1)
        net.step(params, params.zeros_like(), opt)
        for name in before.tensors:
            assert np.array_equal(params.tensors[name], before.tensors[name])
        assert opt.step_count == 1

    def test_decay_reaches_zero(self):
        params = self._setup()
        before = params.copy()
        opt = OptimizerState(total_steps=10, base_rate=0.1, step_count=10)
        grads = {k: np.ones_like(v) for k, v in params.tensors.items()}
        net.step(params, grads, opt)
        for name in before.tensors:
            assert np.array_equal(params.tensors[name], before.tensors[name])

    def test_clipping_scales_update(self):
        params = self._setup()
        before = params.copy()
        opt = OptimizerState(total_steps=1000, base_rate=1.0, clip_norm=1.0)
        grads = params.zeros_like()
        grads["b_out"][0] = 10.0  # global norm 10, clip to 1 -> effective 0.1 scale
        net.step(params, grads, opt)
        delta = before.tensors["b_out"][0] - params.tensors["b_out"][0]
        assert delta == pytest.approx(1.0)

    def test_rate_schedule_is_linear(self):
        opt = OptimizerState(total_steps=100, base_rate=0.5)
        rates = []
        for _ in range(3):
            rates.append(opt.rate())
            opt.step_count += 1
        assert rates == pytest.approx([0.5, 0.5 * 0.99, 0.5 * 0.98])


class TestSync:
    def test_copies_values(self):
        cfg = NetworkConfig.for_features(5, 3, 4, "gru")
        a, b = net.init(cfg, 1), net.init(cfg, 2)
        net.sync(a, b)
        for state in ((), (1, 3), (2,)):
            assert np.array_equal(net.forward(a, state), net.forward(b, state))

    def test_source_unchanged_and_independent(self):
        cfg = NetworkConfig.for_features(5, 3, 4, "gru")
        a, b = net.init(cfg, 1), net.init(cfg, 2)
        net.sync(a, b)
        b.tensors["b_out"][0] += 1.0
        assert a.tensors["b_out"][0] == 0.0

    def test_idempotent(self):
        cfg = NetworkConfig.for_features(5, 3, 4, "rnn")
        a, b = net.init(cfg, 1), net.init(cfg, 2)
        net.sync(a, b)
        snapshot = b.copy()
        net.sync(a, b)
        for name in snapshot.tensors:
            assert np.array_equal(b.tensors[name], snapshot.tensors[name])

    def test_config_mismatch_rejected(self):
        a = net.init(NetworkConfig.for_features(5, 3, 4, "rnn"), 1)
        b = net.init(NetworkConfig.for_features(5, 3, 8, "rnn"), 1)
        with pytest.raises(ValueError):
            net.sync(a, b)


class TestCheckpoint:
    @pytest.mark.parametrize("cell", ["rnn", "gru", "lstm"])
    def test_round_trip_bit_exact(self, tmp_path, cell):
        cfg = NetworkConfig.for_features(6, 3, 4, cell)
        params = net.init(cfg, 13)
        opt = OptimizerState(total_steps=50, base_rate=0.01, clip_norm=2.0, step_count=7)
        path = tmp_path / "ckpt.json"
        net.save_checkpoint(path, params, opt)
        loaded, opt2 = net.load_checkpoint(path)
        assert loaded.config == cfg
        assert opt2 == opt
        for name in params.tensors:
            assert np.array_equal(loaded.tensors[name], params.tensors[name])


class TestTrainability:
    def test_fixed_batch_fits_to_tolerance(self):
        # 200 SGD steps on a frozen batch must drive each Q to its target
        rng = np.random.default_rng(21)
        cfg = NetworkConfig.for_features(6, 4, 8, "gru")
        params = net.init(cfg, 22)
        batch = []
        for _ in range(3):
            state = random_state(rng, 6, max_len=3)
            action = int(rng.integers(1, 7))
            target = float(rng.uniform(0.0, 1.0))
            batch.append((state, action, target))
        opt = OptimizerState(total_steps=10_000, base_rate=0.5)
        losses = []
        for _ in range(200):
            total = params.zeros_like()
            for state, action, target in batch:
                grads = net.backward(params, state, action, target)
                for name, g in grads.items():
                    total[name] += g
            for g in total.values():
                g /= len(batch)
            losses.append(sum(
                0.5 * (net.forward(params, s)[a - 1] - t) ** 2 for s, a, t in batch
            ))
            net.step(params, total, opt)
        assert losses[-1] < losses[0]
        for state, action, target in batch:
            assert abs(net.forward(params, state)[action - 1] - target) < 1e-2
