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
all steps are one GEMM. Step 0 is BOS in every row with h = 0, so it has no
recurrent product in either direction: its recurrent term is the constant
0.0, and backpropagation stops there without the GEMMs that would give the
unused gradient of h0. Backpropagation fills one (T, B, G*H) array with
every step's pre-activation gradient, and each weight gradient is one GEMM
over all its (step, row) pairs, step 0 included. The embedding gradient
scatters with ``np.add.at``, because BOS is in every row. The loss of a
batch is the mean over its rows, and the 1/B sits in the head gradient,
which for the linear head touches only the taken columns.

``forward_batch`` scores B states at once. ``forward(params, state)`` is the
B = 1 call of the same kernels. ``backward`` takes one transition, or a batch
as sequences of states, actions and targets. A checkpoint is replaced
whole when saved and checked against the configured layout when loaded.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .files import replace_atomically

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


def _layout(config: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor of ``config``, in parameter order."""
    e, h, n = config.embed_dim, config.hidden_dim, config.output_dim
    g = _GATES[config.cell]
    return {
        "embed": (config.vocab_size, e), "w_x": (e, g * h), "w_h": (h, g * h), "b": (g * h,),
        "w_out": (h, n), "b_out": (n,),
    }


def init(config: NetworkConfig, seed: int) -> NetworkParams:
    """Uniform(-r, r) weights with r = 1/sqrt(fan_in); zero biases except LSTM forget gate (1.0)."""
    rng = np.random.default_rng(seed)
    fan_in = {"embed": config.embed_dim, "w_x": config.embed_dim, "w_h": config.hidden_dim, "w_out": config.hidden_dim}
    tensors = {}
    for name, shape in _layout(config).items():
        if name in fan_in:
            r = 1.0 / np.sqrt(fan_in[name])
            tensors[name] = rng.uniform(-r, r, size=shape)
        else:
            tensors[name] = np.zeros(shape)
    if config.cell == "lstm":
        h = config.hidden_dim
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
    """Run the cell over a token batch; return the final (B, H) hidden state and the tape for ``_bptt``.

    The input projections of every step come from one GEMM. Step 0 (BOS in
    every row, h = 0) has no recurrent product: its recurrent term is the
    constant 0.0, which has the bits of a zero matrix times ``w_h``. A masked
    step (past the row's length) keeps that row's h and c. The tape holds h
    entering each step in one (T, B, H) array, GRU's r * h in another, each
    step's mask (``None`` when no row is masked) and its cell cache.
    """
    cfg = params.config
    hd = cfg.hidden_dim
    w_h = params.tensors["w_h"]
    xw = params.tensors["embed"][tokens.T] @ params.tensors["w_x"]
    xw += params.tensors["b"]
    hs = np.zeros((*tokens.T.shape, hd))
    rhs = np.zeros_like(hs) if cfg.cell == "gru" else None
    c = np.zeros_like(hs[0])
    masks, caches = [], []
    for t, (xa, m) in enumerate(zip(xw, mask.T[:, :, None])):
        m = None if m.all() else m
        h = hs[t]
        if cfg.cell == "rnn":
            h_new = np.tanh(xa + (h @ w_h if t else 0.0))
            cache = (h_new,)
        elif cfg.cell == "gru":
            if t:
                ha = h @ w_h[:, : 2 * hd]
                z = _sigmoid(xa[:, :hd] + ha[:, :hd])
                r = _sigmoid(xa[:, hd : 2 * hd] + ha[:, hd:])
                rh = np.multiply(r, h, out=rhs[t])
                n = np.tanh(xa[:, 2 * hd :] + rh @ w_h[:, 2 * hd :])
            else:  # r * h stays 0
                z = _sigmoid(xa[:, :hd] + 0.0)
                r = _sigmoid(xa[:, hd : 2 * hd] + 0.0)
                n = np.tanh(xa[:, 2 * hd :] + 0.0)
            h_new = (1.0 - z) * h + z * n
            cache = (z, r, n)
        else:  # lstm
            a = xa + (h @ w_h if t else 0.0)
            i = _sigmoid(a[:, :hd])
            f = _sigmoid(a[:, hd : 2 * hd])
            g = np.tanh(a[:, 2 * hd : 3 * hd])
            o = _sigmoid(a[:, 3 * hd :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            cache = (c, i, f, g, o, tanh_c)
            c = c_new if m is None else np.where(m, c_new, c)
        masks.append(m)
        caches.append(cache)
        h = h_new if m is None else np.where(m, h_new, h)
        if t + 1 < len(hs):
            hs[t + 1] = h
    return h, (hs, rhs, masks, caches)


def _bptt(params: NetworkParams, tokens: np.ndarray, tape, dh: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate dL/dh_T (B, H) through the unrolled steps into the embedding and cell weights.

    Each step's pre-activation gradient fills its slice of one (T, B, G*H)
    array. A masked step's slice is zero, and it passes dh (and dc) through
    unchanged. Step 0 runs no GEMM: the gradient of h0 is not needed, and
    GRU's r-gate gradient there is a product with h0 = 0. Weight gradients
    are one GEMM over all (step, row) pairs, step 0 included; the embedding
    gradient scatters with ``np.add.at`` because token 0 (BOS, and padding)
    repeats in every row.
    """
    hd = params.config.hidden_dim
    cell = params.config.cell
    w_x, w_h = params.tensors["w_x"], params.tensors["w_h"]
    hs, rhs, masks, caches = tape
    d = np.empty((*hs.shape[:2], w_h.shape[1]))
    dc = np.zeros_like(dh)
    for t in reversed(range(len(d))):
        dpre, h_prev, m, cache = d[t], hs[t], masks[t], caches[t]
        if cell == "rnn":
            (h_new,) = cache
            np.multiply(dh, 1.0 - h_new * h_new, out=dpre)
        elif cell == "gru":
            z, r, n = cache
            dn_pre = np.multiply(dh * z, 1.0 - n * n, out=dpre[:, 2 * hd :])
            np.multiply(dh * (n - h_prev) * z, 1.0 - z, out=dpre[:, :hd])
            if t:
                drh = dn_pre @ w_h[:, 2 * hd :].T
                np.multiply(drh * h_prev * r, 1.0 - r, out=dpre[:, hd : 2 * hd])
            else:  # dr_pre = drh * h0 * ..., and h0 = 0
                dpre[:, hd : 2 * hd] = 0.0
        else:  # lstm
            c_prev, i, f, g, o, tanh_c = cache
            dc_t = dc + dh * o * (1.0 - tanh_c * tanh_c)
            dpre[:, :hd] = dc_t * g * i * (1.0 - i)
            dpre[:, hd : 2 * hd] = dc_t * c_prev * f * (1.0 - f)
            dpre[:, 2 * hd : 3 * hd] = dc_t * i * (1.0 - g * g)
            dpre[:, 3 * hd :] = dh * tanh_c * o * (1.0 - o)
        if not t:  # nothing needs the gradient of the zero start state
            break
        if cell == "gru":
            dh_prev = dh * (1.0 - z) + drh * r + dpre[:, : 2 * hd] @ w_h[:, : 2 * hd].T
        else:
            dh_prev = dpre @ w_h.T
        if cell == "lstm":
            dc = dc_t * f if m is None else np.where(m, dc_t * f, dc)
        if m is None:
            dh = dh_prev
        else:
            dpre *= m
            dh = np.where(m, dh_prev, dh)

    d = d.reshape(-1, d.shape[2])  # (T * B, G * H), step-major like tokens.T
    xs = params.tensors["embed"][tokens.T.ravel()]
    h_prevs = hs.reshape(-1, hd)
    if cell == "gru":  # the candidate's recurrent input is r * h, not h
        g_wh = np.empty_like(w_h)
        np.matmul(h_prevs.T, d[:, : 2 * hd], out=g_wh[:, : 2 * hd])
        np.matmul(rhs.reshape(-1, hd).T, d[:, 2 * hd :], out=g_wh[:, 2 * hd :])
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
    h, tape = _unroll(params, tokens, mask)

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
    grads = _bptt(params, tokens, tape, dh) | {"w_out": g_out, "b_out": g_bias}
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
    """Structured-text checkpoint; float64 values round-trip exactly via repr.

    The file is replaced whole, so an interrupted save leaves the previous one.
    """
    payload = {
        "config": asdict(params.config),
        "optimizer": asdict(opt),
        "tensors": {k: v.tolist() for k, v in params.tensors.items()},
    }
    with replace_atomically(path) as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> tuple[NetworkParams, OptimizerState]:
    """Read a checkpoint; every tensor must be present with the shape ``init`` gives its config."""
    with open(path) as fh:
        payload = json.load(fh)
    config = NetworkConfig(**payload["config"])
    stored = payload["tensors"]
    layout = _layout(config)
    unknown = sorted(stored.keys() - layout.keys())
    if unknown:
        raise ValueError(f"checkpoint tensor {unknown[0]!r} is not a tensor of the configured network")
    tensors = {}
    for name, shape in layout.items():
        if name not in stored:
            raise ValueError(f"checkpoint has no tensor {name!r}; expected shape {shape}")
        tensors[name] = np.asarray(stored[name], dtype=np.float64)
        if tensors[name].shape != shape:
            raise ValueError(f"checkpoint tensor {name!r} has shape {tensors[name].shape}; expected shape {shape}")
    params = NetworkParams(config, tensors)
    opt = OptimizerState(**payload["optimizer"])
    return params, opt
