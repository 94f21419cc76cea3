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

Each cell has one implementation, and it runs on (B, H) matrices. A batch of B
states becomes a (B, T) token matrix: BOS, then each state's indices,
zero-padded to the longest row, with a (B, T) length mask. A masked step keeps
that row's h (and c); in backpropagation it has a zero pre-activation gradient
and passes dh (and dc) through unchanged. Each step's input projection is one
GEMM into a single (B, G*H) array: the GEMM that a stacked matmul over all
steps runs for that step, with the same bits. Step 0 is BOS in every row with
h = 0, so it has no recurrent product in either direction: its recurrent term
is the constant 0.0, and backpropagation stops there without the GEMMs that
would give the unused gradient of h0. Backpropagation fills one (T, B, G*H)
array with every step's pre-activation gradient, and each weight gradient is
one GEMM over all its (step, row) pairs, step 0 included. The embedding
gradient scatters with ``np.add.at``, because BOS is in every row. The loss of
a batch is the mean over its rows, and the 1/B sits in the head gradient,
which for the linear head touches only the taken columns.

``forward_batch`` scores B states at once. ``forward(params, state)`` is the
B = 1 call of the same kernels. ``backward`` takes one transition, or a batch
as sequences of states, actions and targets. A checkpoint is replaced
whole when saved and checked against the configured layout when loaded.

A ``Workspace`` holds every array that a forward pass, a BPTT pass and an
optimizer step write: the tapes, each step's gates and temporaries, and the
gradients. An array needed one step at a time is held once: the input
projection is one step's, and the optimizer step's scratch reuses the buffer
of the pre-activation gradients. The caller owns it: a training run makes one,
passes it to the target forwards, the BPTT pass and the step of every train
step, and drops it when the run finishes. A call given none makes a new
workspace for itself, so there is one code path. Each buffer grows to the
largest size it has been asked for and never shrinks. It exists because arrays
of a batch's size, made and freed on every call, are handed back to the system
by the allocator and page-faulted in again by the next call. Every kernel
keeps the operations, their order and the shape of every GEMM of a plain
unroll, so the workspace changes no output bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import is_index
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


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from one exp(-|x|).

    Writes into ``out`` (which may be ``x``) and uses ``scratch`` (not ``x``)
    for exp(-|x|); each is a new array when not given.
    """
    out = np.empty(x.shape) if out is None else out
    e = np.copysign(x, -1.0, out=np.empty(x.shape) if scratch is None else scratch)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=out)
    np.maximum(out, e, out=out)  # 1 where x >= 0, else e (0 <= e <= 1)
    e += 1.0
    return np.divide(out, e, out=out)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def validate_index(i, what: str) -> int:
    """``i`` as an int: numpy integers become ints; anything else is refused with a message led by ``what``.

    ``dataset.is_index`` is the integer rule (a bool is refused); this applies it to states and replayed actions.
    """
    if not is_index(i):
        raise ValueError(f"{what} {i!r} is not an integer")
    return int(i)


def validate_state(state, n_features: int) -> tuple[int, ...]:
    """``state`` as a tuple of ints, checked to hold integers in 1..n_features, sorted strictly ascending.

    The one selection rule of the network, the reward oracle and ``FeatureEnv.step``.
    """
    s = tuple(state)  # a tuple of ints is returned as it is, so callers can keep sharing it
    if any(type(i) is not int for i in s):
        s = tuple(validate_index(i, "state index") for i in s)
    for a, b in zip(s, s[1:]):
        if b <= a:
            raise ValueError(f"state must be sorted strictly ascending, got {s}")
    if s and not (1 <= s[0] and s[-1] <= n_features):
        raise ValueError(f"state index {s[0] if s[0] < 1 else s[-1]} outside 1..{n_features}")
    return s


def _tokens(config: NetworkConfig, states) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) tokens, each row BOS then its state's indices, zero-padded; and the (B, T) length mask."""
    rows = [validate_state(s, config.n_features) for s in states]
    if not rows:
        raise ValueError("a batch needs at least one state")
    lengths = np.array([len(r) + 1 for r in rows])
    tokens = np.zeros((len(rows), int(lengths.max())), dtype=np.intp)
    for b, r in enumerate(rows):
        tokens[b, 1 : len(r) + 1] = r
    return tokens, np.arange(tokens.shape[1]) < lengths[:, None]


# Per-step (B, H) arrays each cell keeps on its tape for BPTT.
_CACHED = {"rnn": 1, "gru": 3, "lstm": 5}


class Workspace:
    """The arrays that forward passes, BPTT passes and optimizer steps write, kept between calls.

    Names are buffers, not roles: two arrays whose lifetimes never overlap
    share one name (the optimizer step writes into BPTT's ``d``).

    ``array(name, shape)`` returns a C-contiguous float64 view at the start of
    the named buffer. A buffer grows to the largest size it has been asked
    for and never shrinks. A view holds whatever the last call left, so every
    kernel writes a view before it reads it. Gradients that ``backward``
    returns with a workspace are views into it, and the next call that uses
    the workspace overwrites them.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _unroll(params: NetworkParams, tokens: np.ndarray, mask: np.ndarray, ws: Workspace):
    """Run the cell over a token batch; return the final (B, H) hidden state and the tape for ``_bptt``.

    Each step's input projection is one GEMM into one (B, G*H) array. Step 0
    (BOS in every row, h = 0) has no recurrent product: its recurrent term is
    the constant 0.0, which has the bits of a zero matrix times ``w_h``. A
    masked step (past the row's length) keeps that row's h and c. Every array
    is a view into ``ws``. The tape holds the embedded tokens, h entering each
    step in one (T, B, H) array, GRU's r * h and LSTM's c in another, each
    step's cell cache in one (T, K, B, H) array, and each step's mask
    (``None`` when no row is masked).
    """
    cfg = params.config
    hd, cell = cfg.hidden_dim, cfg.cell
    w_h = params.tensors["w_h"]
    rows, steps = tokens.shape
    x = np.take(params.tensors["embed"], tokens.T, axis=0, out=ws.array("x", (steps, rows, cfg.embed_dim)), mode="clip")
    w_x, b = params.tensors["w_x"], params.tensors["b"]
    xa = ws.array("xw", (rows, w_h.shape[1]))  # the step's input projection
    hs = ws.array("hs", (steps, rows, hd))
    hs[0] = 0.0
    carry = None  # GRU's r * h or LSTM's c entering each step
    if cell != "rnn":
        carry = ws.array("carry", (steps, rows, hd))
        carry[0] = 0.0
    cache = ws.array("cache", (steps, _CACHED[cell], rows, hd))
    keep = mask.T[:, :, None]
    masks = [None if m.all() else m for m in keep]
    hold = None if masks[-1] is None else ~keep  # a row masked at any step is masked at the last
    h_last = ws.array("h", (rows, hd))
    rec = ws.array("rec", (rows, w_h.shape[1]))  # the recurrent product
    s = ws.array("s", (rows, hd))  # sigmoid scratch and a product
    for t, m in enumerate(masks):
        np.matmul(x[t], w_x, out=xa)
        xa += b
        h = hs[t]
        h_new = hs[t + 1] if t + 1 < steps else h_last
        if cell == "rnn":
            u = cache[t, 0]
            np.add(xa, np.matmul(h, w_h, out=rec) if t else 0.0, out=u)
            np.tanh(u, out=u)
            np.copyto(h_new, u)
        elif cell == "gru":
            z, r, n = cache[t]
            if t:
                ha = np.matmul(h, w_h[:, : 2 * hd], out=rec[:, : 2 * hd])
                np.add(xa[:, :hd], ha[:, :hd], out=z)
                np.add(xa[:, hd : 2 * hd], ha[:, hd:], out=r)
                rh = np.multiply(_sigmoid(r, r, s), h, out=carry[t])
                np.add(xa[:, 2 * hd :], np.matmul(rh, w_h[:, 2 * hd :], out=rec[:, 2 * hd :]), out=n)
            else:  # r * h stays 0
                np.add(xa[:, :hd], 0.0, out=z)
                _sigmoid(np.add(xa[:, hd : 2 * hd], 0.0, out=r), r, s)
                np.add(xa[:, 2 * hd :], 0.0, out=n)
            _sigmoid(z, z, s)
            np.tanh(n, out=n)
            np.subtract(1.0, z, out=h_new)  # h' = (1 - z) * h + z * n
            h_new *= h
            h_new += np.multiply(z, n, out=s)
        else:  # lstm
            i, f, g, o, tanh_c = cache[t]
            c, c_new = carry[t], carry[t + 1] if t + 1 < steps else ws.array("c", (rows, hd))
            a = np.add(xa, np.matmul(h, w_h, out=rec) if t else 0.0, out=rec)
            _sigmoid(a[:, :hd], i, s)
            _sigmoid(a[:, hd : 2 * hd], f, s)
            np.tanh(a[:, 2 * hd : 3 * hd], out=g)
            _sigmoid(a[:, 3 * hd :], o, s)
            np.multiply(f, c, out=c_new)  # c' = f * c + i * g
            c_new += np.multiply(i, g, out=s)
            np.tanh(c_new, out=tanh_c)
            np.multiply(o, tanh_c, out=h_new)
            if m is not None:
                np.copyto(c_new, c, where=hold[t])
        if m is not None:
            np.copyto(h_new, h, where=hold[t])
    return h_last, (x, hs, carry, cache, masks, hold)


def _bptt(params: NetworkParams, tokens: np.ndarray, tape, dh: np.ndarray, ws: Workspace) -> dict[str, np.ndarray]:
    """Backpropagate dL/dh_T (B, H) through the unrolled steps into the embedding and cell weights.

    Each step's pre-activation gradient fills its slice of one (T, B, G*H)
    array. A masked step's slice is zero, and it passes dh (and dc) through
    unchanged. Step 0 runs no GEMM: the gradient of h0 is not needed, and
    GRU's r-gate gradient there is a product with h0 = 0. Weight gradients
    are one GEMM over all (step, row) pairs, step 0 included; the embedding
    gradient scatters with ``np.add.at`` because token 0 (BOS, and padding)
    repeats in every row. Every array, ``dh`` included, is a view into
    ``ws``, and ``dh`` is overwritten.
    """
    hd = params.config.hidden_dim
    cell = params.config.cell
    w_x, w_h = params.tensors["w_x"], params.tensors["w_h"]
    x, hs, carry, cache, masks, hold = tape
    d = ws.array("d", (*hs.shape[:2], w_h.shape[1]))
    dh_prev, s = ws.array("dh_prev", dh.shape), ws.array("s", dh.shape)
    if cell == "gru":
        drh, u = ws.array("drh", dh.shape), ws.array("u", dh.shape)
    elif cell == "lstm":
        dc, dc_t = ws.array("dc", dh.shape), ws.array("dc_t", dh.shape)
        dc[...] = 0.0
    for t in reversed(range(len(d))):
        dpre, h_prev, m = d[t], hs[t], masks[t]
        if cell == "rnn":
            np.subtract(1.0, np.square(cache[t, 0], out=s), out=s)
            np.multiply(dh, s, out=dpre)
        elif cell == "gru":
            z, r, n = cache[t]
            dz_pre, dr_pre, dn_pre = dpre[:, :hd], dpre[:, hd : 2 * hd], dpre[:, 2 * hd :]
            np.multiply(dh, z, out=dn_pre)  # dh * z * (1 - n * n)
            dn_pre *= np.subtract(1.0, np.square(n, out=s), out=s)
            np.subtract(n, h_prev, out=dz_pre)  # dh * (n - h_prev) * z * (1 - z)
            dz_pre *= dh
            dz_pre *= z
            dz_pre *= np.subtract(1.0, z, out=s)
            if t:
                np.matmul(dn_pre, w_h[:, 2 * hd :].T, out=drh)
                np.multiply(drh, h_prev, out=dr_pre)  # drh * h_prev * r * (1 - r)
                dr_pre *= r
                dr_pre *= np.subtract(1.0, r, out=s)
            else:  # dr_pre = drh * h0 * ..., and h0 = 0
                dr_pre[...] = 0.0
        else:  # lstm
            i, f, g, o, tanh_c = cache[t]
            di, df, dg, do = (dpre[:, k * hd : (k + 1) * hd] for k in range(4))
            np.multiply(dh, o, out=dc_t)  # dc + dh * o * (1 - tanh_c * tanh_c)
            dc_t *= np.subtract(1.0, np.square(tanh_c, out=s), out=s)
            dc_t += dc
            np.multiply(dc_t, g, out=di)  # dc_t * g * i * (1 - i)
            di *= i
            di *= np.subtract(1.0, i, out=s)
            np.multiply(dc_t, carry[t], out=df)  # dc_t * c_prev * f * (1 - f)
            df *= f
            df *= np.subtract(1.0, f, out=s)
            np.multiply(dc_t, i, out=dg)  # dc_t * i * (1 - g * g)
            dg *= np.subtract(1.0, np.square(g, out=s), out=s)
            np.multiply(dh, tanh_c, out=do)  # dh * tanh_c * o * (1 - o)
            do *= o
            do *= np.subtract(1.0, o, out=s)
        if not t:  # nothing needs the gradient of the zero start state
            break
        if cell == "gru":  # dh * (1 - z) + drh * r + dpre[:, :2H] @ w_h[:, :2H].T
            np.matmul(dpre[:, : 2 * hd], w_h[:, : 2 * hd].T, out=dh_prev)
            np.subtract(1.0, z, out=s)
            s *= dh
            s += np.multiply(drh, r, out=u)
            dh_prev += s
        else:
            np.matmul(dpre, w_h.T, out=dh_prev)
        if cell == "lstm":
            dc_t *= f
            if m is not None:
                np.copyto(dc_t, dc, where=hold[t])
            dc, dc_t = dc_t, dc
        if m is not None:
            dpre *= m
            np.copyto(dh_prev, dh, where=hold[t])
        dh, dh_prev = dh_prev, dh

    d = d.reshape(-1, d.shape[2])  # (T * B, G * H), step-major like tokens.T
    xs = x.reshape(-1, x.shape[2])
    h_prevs = hs.reshape(-1, hd)
    g_wh = ws.array("g_w_h", w_h.shape)
    if cell == "gru":  # the candidate's recurrent input is r * h, not h
        np.matmul(h_prevs.T, d[:, : 2 * hd], out=g_wh[:, : 2 * hd])
        np.matmul(carry.reshape(-1, hd).T, d[:, 2 * hd :], out=g_wh[:, 2 * hd :])
    else:
        np.matmul(h_prevs.T, d, out=g_wh)
    g_embed = ws.array("g_embed", params.tensors["embed"].shape)
    g_embed[...] = 0.0
    np.add.at(g_embed, tokens.T.ravel(), np.matmul(d, w_x.T, out=ws.array("dx", xs.shape)))
    return {
        "embed": g_embed,
        "w_x": np.matmul(xs.T, d, out=ws.array("g_w_x", w_x.shape)),
        "w_h": g_wh,
        "b": np.sum(d, axis=0, out=ws.array("g_b", (d.shape[1],))),
    }


def forward_batch(params: NetworkParams, states, workspace: Workspace | None = None) -> np.ndarray:
    """(B, N) scores, row b for the sorted selection ``states[b]`` (any of them may be empty).

    The scores are a new array; the unroll writes into ``workspace``, or into
    a new one when none is given.
    """
    tokens, mask = _tokens(params.config, states)
    h, _ = _unroll(params, tokens, mask, Workspace() if workspace is None else workspace)
    scores = h @ params.tensors["w_out"] + params.tensors["b_out"]
    if params.config.head == "softmax":
        scores = _softmax(scores)
    return scores


def forward(params: NetworkParams, state, workspace: Workspace | None = None) -> np.ndarray:
    """Score every feature given the sorted selection ``state`` (may be empty); the unroll writes into ``workspace`` if given."""
    return forward_batch(params, [state], workspace)[0]


def backward(params: NetworkParams, state, action, target, workspace: Workspace | None = None) -> dict[str, np.ndarray]:
    """Gradients of the mean of 0.5 * (Q(state)[action-1] - target)^2 w.r.t. every tensor, via BPTT.

    One transition (``action`` an int), or a batch: ``state`` a sequence of B
    states, ``action`` and ``target`` sequences of length B. The gradients are
    views into ``workspace`` and the next call that uses it overwrites them;
    without one, they are views into a new workspace of their own.
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
    ws = Workspace() if workspace is None else workspace
    tokens, mask = _tokens(cfg, states)
    h, tape = _unroll(params, tokens, mask, ws)

    w_out = params.tensors["w_out"]
    rows, cols = np.arange(len(states)), actions - 1
    z = np.matmul(h, w_out, out=ws.array("z", (len(states), cfg.output_dim)))
    z += params.tensors["b_out"]
    g_out, g_bias = ws.array("g_w_out", w_out.shape), ws.array("g_b_out", (cfg.output_dim,))
    dh = ws.array("dh", h.shape)
    if cfg.head == "softmax":
        # d q_a / d z_j = q_a * (delta_aj - q_j); dense over every column
        q = _softmax(z)
        qa = q[rows, cols]
        scale = (qa - targets) * qa / len(states)
        dz = -scale[:, None] * q
        dz[rows, cols] += scale
        np.matmul(h.T, dz, out=g_out)
        np.sum(dz, axis=0, out=g_bias)
        np.matmul(dz, w_out.T, out=dh)
    else:  # only the taken columns carry gradient
        residual = (z[rows, cols] - targets) / len(states)
        g_out[...] = 0.0
        np.add.at(g_out.T, cols, np.multiply(residual[:, None], h, out=dh))  # dh's buffer, until dh is written
        g_bias[...] = np.bincount(cols, weights=residual, minlength=cfg.output_dim)
        w_cols = np.take(w_out, cols, axis=1, out=ws.array("w_cols", (len(w_out), len(cols))), mode="clip")
        np.multiply(residual[:, None], w_cols.T, out=dh)
    grads = _bptt(params, tokens, tape, dh, ws) | {"w_out": g_out, "b_out": g_bias}
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
        if not (math.isfinite(self.base_rate) and self.base_rate >= 0):
            raise ValueError(f"base_rate must be finite and >= 0, got {self.base_rate}")
        if not self.clip_norm > 0:  # refuses NaN; +inf never clips
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")

    def rate(self) -> float:
        return self.base_rate * max(0.0, 1.0 - self.step_count / self.total_steps)


def step(
    params: NetworkParams, grads: dict[str, np.ndarray], opt: OptimizerState, workspace: Workspace | None = None,
) -> NetworkParams:
    """One SGD update in place, clipped to the global gradient norm; advances the optimizer's step counter.

    The squares for the norm and each scaled gradient are written into the
    buffer of ``_bptt``'s pre-activation gradients, which no longer holds
    anything once the gradients are made. So ``grads`` must not be views of
    that buffer; the gradients ``backward`` returns never are.
    """
    ws = Workspace() if workspace is None else workspace
    norm = math.sqrt(sum(float(np.square(g, out=ws.array("d", g.shape)).sum()) for g in grads.values()))
    scale = opt.clip_norm / norm if norm > opt.clip_norm else 1.0
    rate = opt.rate()
    for name, tensor in params.tensors.items():
        g = grads[name]
        tensor -= np.multiply(g, rate * scale, out=ws.array("d", g.shape))
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
    with open(path, encoding="utf-8") as fh:
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
