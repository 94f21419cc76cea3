import itertools
import json
from contextlib import contextmanager
from unittest import mock

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

    @pytest.mark.parametrize("state", [
        (2.7,), (1, 2.7), (np.float64(2.0),), (1, np.float64(2.0)), (np.int64(1), 2.7), (True, 2),
    ])
    def test_non_integer_index_rejected(self, state):
        params = net.init(NetworkConfig.for_features(6, 3, 4, "rnn"), 4)
        with pytest.raises(ValueError, match="not an integer"):
            net.forward(params, state)
        with pytest.raises(ValueError, match="not an integer"):
            net.backward(params, state, 3, 0.5)
        with pytest.raises(ValueError, match="not an integer"):
            net.backward(params, [(1,), state], [3, 4], [0.5, 0.5])

    def test_numpy_integer_indices_score_like_ints(self):
        params = net.init(NetworkConfig.for_features(6, 3, 4, "rnn"), 4)
        assert np.array_equal(net.forward(params, (np.int64(2), np.int32(5))), net.forward(params, (2, 5)))


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


# The batched kernels as they stood before step 0 lost its recurrent products
# and BPTT its per-step concatenations. The kernels in ``net`` must give the
# same values bit for bit (``np.array_equal``, so the sign of a zero may
# differ: GRU's step-0 r-gate gradient is +0.0 where the reference has
# drh * h0 * ..., a zero with drh's sign). They take the workspace that
# ``net`` passes its kernels and ignore it: every array here is new.
def reference_unroll(params, tokens: np.ndarray, mask: np.ndarray, workspace=None):
    """Run the cell over a token batch; return the final (B, H) hidden state and per-step caches.

    The input projections of every step come from one GEMM. A masked step
    (past the row's length) keeps that row's h and c; a step with no masked
    row caches ``None`` for its mask.
    """
    cfg = params.config
    hd = cfg.hidden_dim
    w_h = params.tensors["w_h"]
    xw = params.tensors["embed"][tokens.T] @ params.tensors["w_x"] + params.tensors["b"]
    h = np.zeros((tokens.shape[0], hd))
    c = np.zeros_like(h)
    steps = []
    for xa, m in zip(xw, mask.T[:, :, None]):
        m = None if m.all() else m
        if cfg.cell == "rnn":
            h_new = np.tanh(xa + h @ w_h)
            cache = (h_new,)
        elif cfg.cell == "gru":
            ha = h @ w_h[:, : 2 * hd]
            z = net._sigmoid(xa[:, :hd] + ha[:, :hd])
            r = net._sigmoid(xa[:, hd : 2 * hd] + ha[:, hd:])
            rh = r * h
            n = np.tanh(xa[:, 2 * hd :] + rh @ w_h[:, 2 * hd :])
            h_new = (1.0 - z) * h + z * n
            cache = (z, r, n, rh)
        else:  # lstm
            a = xa + h @ w_h
            i = net._sigmoid(a[:, :hd])
            f = net._sigmoid(a[:, hd : 2 * hd])
            g = np.tanh(a[:, 2 * hd : 3 * hd])
            o = net._sigmoid(a[:, 3 * hd :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            cache = (c, i, f, g, o, tanh_c)
            c = c_new if m is None else np.where(m, c_new, c)
        steps.append((h, m, cache))
        h = h_new if m is None else np.where(m, h_new, h)
    return h, steps


def reference_bptt(params, tokens: np.ndarray, steps, dh: np.ndarray, workspace=None) -> dict[str, np.ndarray]:
    """Backpropagate dL/dh_T (B, H) through the unrolled steps into the embedding and cell weights.

    A masked step has zero pre-activation gradient and passes dh (and dc)
    through unchanged. Weight gradients are one GEMM over all (step, row)
    pairs; the embedding gradient scatters with ``np.add.at`` because token
    0 (BOS, and padding) repeats in every row.
    """
    hd = params.config.hidden_dim
    cell = params.config.cell
    w_x, w_h = params.tensors["w_x"], params.tensors["w_h"]
    dc = np.zeros_like(dh)
    dpres = []
    for h_prev, m, cache in reversed(steps):
        if cell == "rnn":
            (h_new,) = cache
            dpre = dh * (1.0 - h_new * h_new)
            dh_prev = dpre @ w_h.T
        elif cell == "gru":
            z, r, n, rh = cache
            dn_pre = dh * z * (1.0 - n * n)
            drh = dn_pre @ w_h[:, 2 * hd :].T
            dz_pre = dh * (n - h_prev) * z * (1.0 - z)
            dr_pre = drh * h_prev * r * (1.0 - r)
            dpre = np.concatenate([dz_pre, dr_pre, dn_pre], axis=1)
            dh_prev = dh * (1.0 - z) + drh * r + dpre[:, : 2 * hd] @ w_h[:, : 2 * hd].T
        else:  # lstm
            c_prev, i, f, g, o, tanh_c = cache
            dc_t = dc + dh * o * (1.0 - tanh_c * tanh_c)
            dpre = np.concatenate([
                dc_t * g * i * (1.0 - i),
                dc_t * c_prev * f * (1.0 - f),
                dc_t * i * (1.0 - g * g),
                dh * tanh_c * o * (1.0 - o),
            ], axis=1)
            dh_prev = dpre @ w_h.T
            dc = dc_t * f if m is None else np.where(m, dc_t * f, dc)
        if m is None:
            dpres.append(dpre)
            dh = dh_prev
        else:
            dpres.append(dpre * m)
            dh = np.where(m, dh_prev, dh)

    d = np.concatenate(dpres[::-1])  # (T * B, G * H), step-major like tokens.T
    xs = params.tensors["embed"][tokens.T.ravel()]
    h_prevs = np.concatenate([h_prev for h_prev, _, _ in steps])
    if cell == "gru":  # the candidate's recurrent input is r * h, not h
        rhs = np.concatenate([cache[3] for _, _, cache in steps])
        g_wh = np.concatenate([h_prevs.T @ d[:, : 2 * hd], rhs.T @ d[:, 2 * hd :]], axis=1)
    else:
        g_wh = h_prevs.T @ d
    g_embed = np.zeros_like(params.tensors["embed"])
    np.add.at(g_embed, tokens.T.ravel(), d @ w_x.T)
    return {"embed": g_embed, "w_x": xs.T @ d, "w_h": g_wh, "b": d.sum(axis=0)}


@contextmanager
def reference_kernels():
    with mock.patch.object(net, "_unroll", reference_unroll), mock.patch.object(net, "_bptt", reference_bptt):
        yield


@st.composite
def exactness_cases(draw, cell, head):
    n = draw(st.integers(1, 7))
    cfg = NetworkConfig.for_features(
        n, draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 3, 5, 8, 17, 40])), cell, head,
    )
    subsets = st.lists(st.integers(1, n), unique=True, max_size=min(n, 6)).map(lambda s: tuple(sorted(s)))
    shape = draw(st.sampled_from(["empty", "one", "mixed"]))
    if shape == "empty":  # T = 1: only the BOS step
        states = [()] * draw(st.integers(1, 9))
    elif shape == "one":
        states = [draw(subsets)]
    else:  # the empty first row is masked at every step after BOS
        states = [()] + draw(st.lists(subsets, min_size=1, max_size=35))
    actions = draw(st.lists(st.integers(1, n), min_size=len(states), max_size=len(states)))
    targets = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(states), max_size=len(states)))
    return net.init(cfg, draw(st.integers(0, 2**31 - 1))), states, actions, targets


def assert_same_bits_as_reference(params, states, actions, targets):
    scores = net.forward_batch(params, states)
    grads = net.backward(params, states, actions, targets)
    with reference_kernels():
        ref_scores = net.forward_batch(params, states)
        ref_grads = net.backward(params, states, actions, targets)
    assert np.array_equal(scores, ref_scores)
    assert list(grads) == list(ref_grads)
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


class TestExactness:
    @pytest.mark.parametrize("cell, head", CELL_HEADS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_equals_reference_kernels(self, cell, head, data):
        assert_same_bits_as_reference(*data.draw(exactness_cases(cell, head)))

    @pytest.mark.parametrize("cell", net.CELLS)
    def test_equals_reference_kernels_at_bench_scale(self, cell):
        # the select-net shape: 16 features, H = 256, a batch of 32 states of up to 4 features
        rng = np.random.default_rng(31)
        params = net.init(NetworkConfig.for_features(16, 32, 256, cell), 32)
        states = [random_state(rng, 16) for _ in range(32)]
        actions = rng.integers(1, 17, size=32).tolist()
        targets = rng.normal(size=32).tolist()
        assert_same_bits_as_reference(params, states, actions, targets)


@st.composite
def workspace_calls(draw, cell, head):
    """Two parameter sets of one config, and forward and backward calls whose T and B grow and shrink."""
    n = draw(st.integers(1, 7))
    cfg = NetworkConfig.for_features(n, draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 3, 5, 8, 17])), cell, head)
    thetas = [net.init(cfg, draw(st.integers(0, 2**31 - 1))) for _ in range(2)]
    subsets = st.lists(st.integers(1, n), unique=True, max_size=min(n, 6)).map(lambda s: tuple(sorted(s)))
    calls = []
    for _ in range(draw(st.integers(2, 8))):
        states = draw(st.lists(subsets, min_size=1, max_size=12))
        actions = draw(st.lists(st.integers(1, n), min_size=len(states), max_size=len(states)))
        targets = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(states), max_size=len(states)))
        calls.append((draw(st.sampled_from(["forward", "backward"])), draw(st.integers(0, 1)), states, actions, targets))
    return thetas, calls


class TestWorkspace:
    @pytest.mark.parametrize("cell, head", CELL_HEADS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_workspace_serves_a_call_sequence(self, cell, head, data):
        # stale contents must never leak: h and r * h entering step 0, masked
        # rows, and views of a buffer that a larger call has replaced
        thetas, calls = data.draw(workspace_calls(cell, head))
        workspace = net.Workspace()
        for kind, which, states, actions, targets in calls:
            params = thetas[which]
            if kind == "forward":
                got = net.forward_batch(params, states, workspace)
                with reference_kernels():
                    assert np.array_equal(got, net.forward_batch(params, states))
                continue
            got = net.backward(params, states, actions, targets, workspace)
            with reference_kernels():
                want = net.backward(params, states, actions, targets)
            assert list(got) == list(want)
            for name in want:
                assert np.array_equal(got[name], want[name]), name

    def test_gradients_live_in_the_workspace(self):
        params = net.init(NetworkConfig.for_features(6, 3, 5, "gru"), 4)
        batch = ([(1, 3), (), (2,)], [2, 4, 6], [0.2, 0.7, -0.1])
        workspace = net.Workspace()
        first = net.backward(params, *batch, workspace)
        second = net.backward(params, *batch, workspace)
        for name in params.tensors:
            assert np.shares_memory(first[name], second[name]), name
        # forward_batch's scores are new arrays, so both DDQN target forwards can share one workspace
        assert not np.shares_memory(net.forward_batch(params, batch[0], workspace), net.forward_batch(params, batch[0], workspace))

    def test_gradients_without_a_workspace_do_not_alias(self):
        params = net.init(NetworkConfig.for_features(6, 3, 5, "lstm"), 4)
        first = net.backward(params, [(1, 3), ()], [2, 4], [0.2, 0.7])
        second = net.backward(params, [(2,), (1, 5, 6)], [1, 2], [0.5, -0.3])
        arrays = list(first.values()) + list(second.values())
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)


def reference_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class TestSigmoid:
    # At least 8 elements: numpy may take exp of a shorter array by another
    # routine, depending on where its output lies.
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_one_exp_formula(self, data):
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(8, 40))
        values = st.one_of(st.floats(-800.0, 800.0), st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300]))
        wide = np.array(data.draw(st.lists(values, min_size=3 * rows * cols, max_size=3 * rows * cols))).reshape(rows, 3 * cols)
        x = wide[:, cols : 2 * cols]  # a column slice, as the LSTM gates are
        want = reference_sigmoid(x)
        assert np.array_equal(net._sigmoid(x), want)
        scratch, out = np.empty(x.shape), np.empty(x.shape)
        assert net._sigmoid(x, out, scratch) is out
        assert np.array_equal(out, want)
        inplace = np.ascontiguousarray(x)
        net._sigmoid(inplace, inplace, scratch)
        assert np.array_equal(inplace, want)


class TestStep:
    def _setup(self):
        cfg = NetworkConfig.for_features(5, 3, 4, "rnn")
        params = net.init(cfg, 11)
        return params

    def test_zero_gradient_leaves_params(self):
        params = self._setup()
        before = params.copy()
        opt = OptimizerState(total_steps=10, base_rate=0.1)
        net.step(params, {k: np.zeros_like(v) for k, v in params.tensors.items()}, opt)
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
        grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
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

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t.pop("b_out"), r"no tensor 'b_out'; expected shape \(6,\)"),
        (lambda t: t.update(w_h=np.zeros((2, 12)).tolist()), r"'w_h' has shape \(2, 12\); expected shape \(4, 12\)"),
        (lambda t: t.update(w_c=[0.0]), r"'w_c' is not a tensor"),
    ], ids=["missing", "wrong-shape", "unknown"])
    def test_layout_mismatch_rejected(self, tmp_path, edit, message):
        # GRU, H = 4: w_h is (4, 12), b_out is (6,)
        path = tmp_path / "ckpt.json"
        net.save_checkpoint(path, net.init(NetworkConfig.for_features(6, 3, 4, "gru"), 13), OptimizerState(10))
        payload = json.loads(path.read_text())
        edit(payload["tensors"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            net.load_checkpoint(path)

    def test_failed_save_keeps_earlier_file(self, tmp_path):
        params = net.init(NetworkConfig.for_features(6, 3, 4, "rnn"), 13)
        path = tmp_path / "ckpt.json"
        net.save_checkpoint(path, params, OptimizerState(10))
        earlier = path.read_bytes()
        with pytest.raises(TypeError):
            net.save_checkpoint(path, params, OptimizerState(10, step_count=object()))
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


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
            total = {k: np.zeros_like(v) for k, v in params.tensors.items()}
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
