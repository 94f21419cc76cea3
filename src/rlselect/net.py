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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _validate_state(state, n_features: int) -> list[int]:
    s = [int(i) for i in state]
    for i in s:
        if not 1 <= i <= n_features:
            raise ValueError(f"state index {i} outside 1..{n_features}")
    if any(b <= a for a, b in zip(s, s[1:])):
        raise ValueError(f"state must be sorted strictly ascending, got {s}")
    return s


def _run_cell(params: NetworkParams, tokens: list[int], keep_cache: bool):
    """Consume the token sequence; return final hidden state and (optionally) per-step caches."""
    cfg = params.config
    h_dim = cfg.hidden_dim
    t_embed = params.tensors["embed"]
    w_x, w_h, b = params.tensors["w_x"], params.tensors["w_h"], params.tensors["b"]

    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    caches = []
    for tok in tokens:
        x = t_embed[tok]
        if cfg.cell == "rnn":
            h_new = np.tanh(x @ w_x + h @ w_h + b)
            if keep_cache:
                caches.append((tok, x, h, h_new))
            h = h_new
        elif cfg.cell == "gru":
            xa = x @ w_x + b
            ha = h @ w_h
            z = _sigmoid(xa[:h_dim] + ha[:h_dim])
            r = _sigmoid(xa[h_dim : 2 * h_dim] + ha[h_dim : 2 * h_dim])
            rh = r * h
            n = np.tanh(xa[2 * h_dim :] + rh @ w_h[:, 2 * h_dim :])
            h_new = (1.0 - z) * h + z * n
            if keep_cache:
                caches.append((tok, x, h, z, r, n, rh))
            h = h_new
        else:  # lstm
            a = x @ w_x + h @ w_h + b
            i = _sigmoid(a[:h_dim])
            f = _sigmoid(a[h_dim : 2 * h_dim])
            g = np.tanh(a[2 * h_dim : 3 * h_dim])
            o = _sigmoid(a[3 * h_dim :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            if keep_cache:
                caches.append((tok, x, h, c, i, f, g, o, tanh_c))
            h, c = o * tanh_c, c_new
    return h, caches


def forward(params: NetworkParams, state) -> np.ndarray:
    """Score every feature given the sorted selection ``state`` (may be empty)."""
    cfg = params.config
    tokens = [0] + _validate_state(state, cfg.n_features)
    h, _ = _run_cell(params, tokens, keep_cache=False)
    scores = h @ params.tensors["w_out"] + params.tensors["b_out"]
    if cfg.head == "softmax":
        scores = _softmax(scores)
    return scores


def backward(params: NetworkParams, state, action: int, target: float) -> dict[str, np.ndarray]:
    """Gradients of 0.5 * (Q(state)[action-1] - target)^2 w.r.t. every tensor, via BPTT."""
    if not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    cfg = params.config
    if not 1 <= action <= cfg.n_features:
        raise ValueError(f"action {action} outside 1..{cfg.n_features}")
    tokens = [0] + _validate_state(state, cfg.n_features)
    h_dim = cfg.hidden_dim

    h, caches = _run_cell(params, tokens, keep_cache=True)
    w_out, b_out = params.tensors["w_out"], params.tensors["b_out"]
    z_scores = h @ w_out + b_out

    a_idx = action - 1
    if cfg.head == "softmax":
        q = _softmax(z_scores)
        residual = q[a_idx] - target
        # d q_a / d z_j = q_a * (delta_aj - q_j)
        dz = residual * q[a_idx] * (np.eye(1, cfg.output_dim, a_idx)[0] - q)
    else:
        residual = z_scores[a_idx] - target
        dz = np.zeros(cfg.output_dim)
        dz[a_idx] = residual

    grads = params.zeros_like()
    grads["w_out"] = np.outer(h, dz)
    grads["b_out"] = dz
    dh = w_out @ dz

    w_x, w_h = params.tensors["w_x"], params.tensors["w_h"]
    g_embed = grads["embed"]
    g_wx, g_wh, g_b = grads["w_x"], grads["w_h"], grads["b"]

    if cfg.cell == "rnn":
        for tok, x, h_prev, h_new in reversed(caches):
            dpre = dh * (1.0 - h_new * h_new)
            g_wx += np.outer(x, dpre)
            g_wh += np.outer(h_prev, dpre)
            g_b += dpre
            g_embed[tok] += dpre @ w_x.T
            dh = dpre @ w_h.T
    elif cfg.cell == "gru":
        w_hn = w_h[:, 2 * h_dim :]
        for tok, x, h_prev, z, r, n, rh in reversed(caches):
            dz_gate = dh * (n - h_prev)
            dn = dh * z
            dh_prev = dh * (1.0 - z)

            dn_pre = dn * (1.0 - n * n)
            drh = dn_pre @ w_hn.T
            dr = drh * h_prev
            dh_prev += drh * r

            dz_pre = dz_gate * z * (1.0 - z)
            dr_pre = dr * r * (1.0 - r)

            dpre = np.concatenate([dz_pre, dr_pre, dn_pre])
            g_wx += np.outer(x, dpre)
            g_b += dpre
            g_embed[tok] += dpre @ w_x.T

            g_wh[:, : 2 * h_dim] += np.outer(h_prev, np.concatenate([dz_pre, dr_pre]))
            g_wh[:, 2 * h_dim :] += np.outer(rh, dn_pre)
            dh_prev += np.concatenate([dz_pre, dr_pre]) @ w_h[:, : 2 * h_dim].T
            dh = dh_prev
    else:  # lstm
        dc = np.zeros(h_dim)
        for tok, x, h_prev, c_prev, i, f, g, o, tanh_c in reversed(caches):
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            di = dc * g
            df = dc * c_prev
            dg = dc * i

            di_pre = di * i * (1.0 - i)
            df_pre = df * f * (1.0 - f)
            dg_pre = dg * (1.0 - g * g)
            do_pre = do * o * (1.0 - o)

            dpre = np.concatenate([di_pre, df_pre, dg_pre, do_pre])
            g_wx += np.outer(x, dpre)
            g_wh += np.outer(h_prev, dpre)
            g_b += dpre
            g_embed[tok] += dpre @ w_x.T
            dh = dpre @ w_h.T
            dc = dc * f
    return grads


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
