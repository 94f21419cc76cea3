"""Recurrent decision network: learned embedding, RNN/GRU/LSTM cell, dense scoring head.

The network maps a sorted sequence of selected feature indices (1-based; token
0 is the reserved begin-of-sequence marker, so the empty selection is a valid
input) to one score per feature. Everything is plain numpy float64 with
hand-written backpropagation through time; gradients are exact, which the
tests pin against central finite differences.

Parameter tensors per cell kind (E = embed_dim, H = hidden_dim, V = vocab):

* embed (V, E)
* rnn:  w_x (E, H),  w_h (H, H),  b (H,)            h' = tanh(x w_x + h w_h + b)
* gru:  w_x (E, 3H), w_h (H, 3H), b (3H,)           gate order [z | r | n]
* lstm: w_x (E, 4H), w_h (H, 4H), b (4H,)           gate order [i | f | g | o]
* head: w_out (H, N), b_out (N,)

GRU follows h' = (1 - z) * h + z * n with n = tanh(x w_xn + (r * h) w_hn + b_n).

Each cell has one implementation, and it runs on (B, H) matrices. A batch of
B states becomes a (B, T) token matrix: BOS, then each state's indices,
zero-padded to the longest row, with a (B, T) length mask. A masked step
keeps that row's h (and c); in backpropagation it has a zero pre-activation
gradient and passes dh (and dc) through unchanged. The input projections of
all steps are one GEMM, and so is each weight gradient, over every (step,
row) pair. The embedding gradient scatters with ``np.add.at``, because BOS
is in every row. The loss of a batch is the mean over its rows, and the 1/B
sits in the head gradient, which for the linear head touches only the taken
columns.

``forward_batch`` scores B states at once. ``forward(params, state)`` is the
B = 1 call of the same kernels. ``backward`` takes one transition, or a batch
as sequences of states, actions and targets.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

CELLS = ("rnn", "gru", "lstm")
HEADS = ("linear", "softmax")


@dataclass(frozen=True)
class NetworkConfig:
    vocab_size: int  # N + 1; token 0 reserved for begin-of-sequence
    embed_dim: int
    hidden_dim: int
    cell: str
    output_dim: int  # N
    head: str = "linear"

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.output_dim != self.vocab_size - 1:
            raise ValueError("output_dim must equal vocab_size - 1")
        if self.cell not in CELLS:
            raise ValueError(f"cell must be one of {CELLS}, got {self.cell!r}")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")

    @classmethod
    def for_features(
        cls, n_features: int, embed_dim: int = 32, hidden_dim: int = 64,
        cell: str = "gru", head: str = "linear",
    ) -> "NetworkConfig":
        return cls(n_features + 1, embed_dim, hidden_dim, cell, n_features, head)

    @property
    def n_features(self) -> int:
        return self.output_dim


_GATES = {"rnn": 1, "gru": 3, "lstm": 4}


@dataclass
class NetworkParams:
    config: NetworkConfig
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}


def init(config: NetworkConfig, seed: int) -> NetworkParams:
    """Uniform(-r, r) weights with r = 1/sqrt(fan_in); zero biases except LSTM forget gate (1.0)."""
    rng = np.random.default_rng(seed)
    e, h = config.embed_dim, config.hidden_dim
    g = _GATES[config.cell]

    def uniform(fan_in, shape):
        r = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-r, r, size=shape)

    tensors = {
        "embed": uniform(e, (config.vocab_size, e)),
        "w_x": uniform(e, (e, g * h)),
        "w_h": uniform(h, (h, g * h)),
        "b": np.zeros(g * h),
        "w_out": uniform(h, (h, config.output_dim)),
        "b_out": np.zeros(config.output_dim),
    }
    if config.cell == "lstm":
        tensors["b"][h : 2 * h] = 1.0  # forget gate, [i | f | g | o] layout
    return NetworkParams(config, tensors)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from one exp(-|x|)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _validate_state(state, n_features: int) -> list[int]:
    s = [int(i) for i in state]
    for i in s:
        if not 1 <= i <= n_features:
            raise ValueError(f"state index {i} outside 1..{n_features}")
    if any(b <= a for a, b in zip(s, s[1:])):
        raise ValueError(f"state must be sorted strictly ascending, got {s}")
    return s


def _tokens(config: NetworkConfig, states) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) tokens, each row BOS then its state's indices, zero-padded; and the (B, T) length mask."""
    rows = [_validate_state(s, config.n_features) for s in states]
    if not rows:
        raise ValueError("a batch needs at least one state")
    lengths = np.array([len(r) + 1 for r in rows])
    tokens = np.zeros((len(rows), int(lengths.max())), dtype=np.intp)
    for b, r in enumerate(rows):
        tokens[b, 1 : len(r) + 1] = r
    return tokens, np.arange(tokens.shape[1]) < lengths[:, None]


def _unroll(params: NetworkParams, tokens: np.ndarray, mask: np.ndarray):
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
            z = _sigmoid(xa[:, :hd] + ha[:, :hd])
            r = _sigmoid(xa[:, hd : 2 * hd] + ha[:, hd:])
            rh = r * h
            n = np.tanh(xa[:, 2 * hd :] + rh @ w_h[:, 2 * hd :])
            h_new = (1.0 - z) * h + z * n
            cache = (z, r, n, rh)
        else:  # lstm
            a = xa + h @ w_h
            i = _sigmoid(a[:, :hd])
            f = _sigmoid(a[:, hd : 2 * hd])
            g = np.tanh(a[:, 2 * hd : 3 * hd])
            o = _sigmoid(a[:, 3 * hd :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            cache = (c, i, f, g, o, tanh_c)
            c = c_new if m is None else np.where(m, c_new, c)
        steps.append((h, m, cache))
        h = h_new if m is None else np.where(m, h_new, h)
    return h, steps


def _bptt(params: NetworkParams, tokens: np.ndarray, steps, dh: np.ndarray) -> dict[str, np.ndarray]:
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


def forward_batch(params: NetworkParams, states) -> np.ndarray:
    """(B, N) scores, row b for the sorted selection ``states[b]`` (any of them may be empty)."""
    tokens, mask = _tokens(params.config, states)
    h, _ = _unroll(params, tokens, mask)
    scores = h @ params.tensors["w_out"] + params.tensors["b_out"]
    if params.config.head == "softmax":
        scores = _softmax(scores)
    return scores


def forward(params: NetworkParams, state) -> np.ndarray:
    """Score every feature given the sorted selection ``state`` (may be empty)."""
    return forward_batch(params, [state])[0]


def backward(params: NetworkParams, state, action, target) -> dict[str, np.ndarray]:
    """Gradients of the mean of 0.5 * (Q(state)[action-1] - target)^2 w.r.t. every tensor, via BPTT.

    One transition (``action`` an int), or a batch: ``state`` a sequence of B
    states, ``action`` and ``target`` sequences of length B.
    """
    cfg = params.config
    states = [state] if np.ndim(action) == 0 else list(state)
    actions = np.atleast_1d(np.asarray(action))
    targets = np.atleast_1d(np.asarray(target, dtype=np.float64))
    if not len(states) == len(actions) == len(targets):
        raise ValueError(f"batch sizes differ: {len(states)} states, {len(actions)} actions, {len(targets)} targets")
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"target must be finite, got {target}")
    if actions.dtype.kind not in "iu" or np.any((actions < 1) | (actions > cfg.n_features)):
        raise ValueError(f"action {action} outside 1..{cfg.n_features}")
    tokens, mask = _tokens(cfg, states)
    h, steps = _unroll(params, tokens, mask)

    w_out = params.tensors["w_out"]
    rows, cols = np.arange(len(states)), actions - 1
    z = h @ w_out + params.tensors["b_out"]
    if cfg.head == "softmax":
        # d q_a / d z_j = q_a * (delta_aj - q_j); dense over every column
        q = _softmax(z)
        qa = q[rows, cols]
        scale = (qa - targets) * qa / len(states)
        dz = -scale[:, None] * q
        dz[rows, cols] += scale
        g_out, g_bias = h.T @ dz, dz.sum(axis=0)
        dh = dz @ w_out.T
    else:  # only the taken columns carry gradient
        residual = (z[rows, cols] - targets) / len(states)
        g_out = np.zeros_like(w_out)
        np.add.at(g_out.T, cols, residual[:, None] * h)
        g_bias = np.bincount(cols, weights=residual, minlength=cfg.output_dim)
        dh = residual[:, None] * w_out[:, cols].T
    grads = _bptt(params, tokens, steps, dh) | {"w_out": g_out, "b_out": g_bias}
    return {name: grads[name] for name in params.tensors}


@dataclass
class OptimizerState:
    """SGD with a linearly decayed rate and global gradient-norm clipping."""

    total_steps: int
    base_rate: float = 0.0003
    clip_norm: float = 5.0
    step_count: int = 0

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.base_rate < 0:
            raise ValueError(f"base_rate must be >= 0, got {self.base_rate}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")

    def rate(self) -> float:
        return self.base_rate * max(0.0, 1.0 - self.step_count / self.total_steps)


def global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))


def step(params: NetworkParams, grads: dict[str, np.ndarray], opt: OptimizerState) -> NetworkParams:
    """One clipped SGD update in place; advances the optimizer's step counter."""
    scale = 1.0
    norm = global_norm(grads)
    if norm > opt.clip_norm:
        scale = opt.clip_norm / norm
    rate = opt.rate()
    for name, tensor in params.tensors.items():
        tensor -= rate * scale * grads[name]
    opt.step_count += 1
    return params


def sync(source: NetworkParams, dest: NetworkParams) -> None:
    """Copy source tensors into dest (the target-network refresh)."""
    if source.config != dest.config:
        raise ValueError("cannot sync networks with different configs")
    for name, tensor in source.tensors.items():
        np.copyto(dest.tensors[name], tensor)


def save_checkpoint(path, params: NetworkParams, opt: OptimizerState) -> None:
    """Structured-text checkpoint; float64 values round-trip exactly via repr."""
    payload = {
        "config": asdict(params.config),
        "optimizer": asdict(opt),
        "tensors": {k: v.tolist() for k, v in params.tensors.items()},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> tuple[NetworkParams, OptimizerState]:
    with open(path) as fh:
        payload = json.load(fh)
    config = NetworkConfig(**payload["config"])
    tensors = {k: np.asarray(v, dtype=np.float64) for k, v in payload["tensors"].items()}
    params = NetworkParams(config, tensors)
    opt = OptimizerState(**payload["optimizer"])
    return params, opt
