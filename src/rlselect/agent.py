"""Double-DQN machinery: exploration schedule, masked action selection, replay, targets.

States are sorted tuples of 1-based feature indices. Already-selected features
are masked out both when acting and inside the target's argmax, and the greedy
policy therefore realizes the fall-back-to-next-highest rule: scanning scores
in descending order past selected features is exactly a masked argmax.

Two target conventions are supported. ``paper`` picks the argmax action with
the target network and evaluates it with the online network; ``standard`` is
the mirror image (argmax online, evaluate with the target network).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import net

State = tuple[int, ...]

CONVENTIONS = ("paper", "standard")


def insert_sorted(state: State, action: int) -> State:
    """The one insertion rule: ``state`` with ``action`` added, kept sorted; a repeated action is refused."""
    if action in state:
        raise ValueError(f"feature {action} already selected")
    return tuple(sorted(state + (action,)))


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear exploration decay: eps(episode) = 1 - (episode / total) * p."""

    total_episodes: int
    p: float

    def __post_init__(self):
        if self.total_episodes < 1:
            raise ValueError("total_episodes must be >= 1")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")

    def epsilon(self, episode: int) -> float:
        if not 0 <= episode <= self.total_episodes:
            raise ValueError(
                f"episode {episode} outside 0..{self.total_episodes}"
            )
        return 1.0 - (episode / self.total_episodes) * self.p


@dataclass(frozen=True, slots=True)
class Transition:
    prev_state: State
    action: int
    reward: float
    next_state: State
    terminal: bool

    def __post_init__(self):
        net.validate_index(self.action, "action")
        expected = insert_sorted(self.prev_state, self.action)
        if self.next_state != expected:
            raise ValueError(
                f"next_state {self.next_state} != prev_state + action {expected}"
            )
        if not 0.0 <= self.reward <= 1.0:
            raise ValueError(f"reward {self.reward} outside [0, 1]")


class ReplayMemory:
    """Bounded FIFO transition store with uniform with-replacement sampling."""

    def __init__(self, capacity: int = 200_000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[Transition] = deque(maxlen=capacity)
        self.inserted = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def push(self, transition: Transition) -> None:
        self._buffer.append(transition)
        self.inserted += 1

    def contents(self) -> list[Transition]:
        return list(self._buffer)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        if batch_size > len(self._buffer):
            raise ValueError(
                f"cannot sample {batch_size} from memory of size {len(self._buffer)}"
            )
        idx = rng.integers(0, len(self._buffer), size=batch_size)
        return [self._buffer[i] for i in idx]


def masked_argmax(scores: np.ndarray, state: State) -> int:
    """Best unselected feature (1-based); ties go to the lower index."""
    masked = scores.astype(np.float64, copy=True)
    for i in state:
        masked[i - 1] = -np.inf
    return int(np.argmax(masked)) + 1


def select_action(
    state: State,
    eps: float,
    params: net.NetworkParams,
    rng: np.random.Generator,
    workspace: net.Workspace | None = None,
) -> int:
    """Epsilon-greedy pick over unselected features; greedy uses masked argmax under params.

    A greedy pick's forward unrolls in ``workspace`` when one is given.
    """
    n = params.config.n_features
    if len(state) >= n:
        raise ValueError("state already contains every feature")
    if eps > 0.0 and rng.random() < eps:
        selected = set(state)
        choices = [i for i in range(1, n + 1) if i not in selected]
        return int(choices[rng.integers(0, len(choices))])
    return masked_argmax(net.forward(params, state, workspace), state)


def ddqn_target(
    transition: Transition,
    q_online,
    q_target,
    gamma: float,
    convention: str = "paper",
) -> float:
    """Bootstrapped regression target for one transition.

    ``q_online`` and ``q_target`` score a state under the learning network
    (theta-1) and the periodically synced network (theta-2) respectively.
    Terminal transitions return the raw reward; otherwise the next state's
    argmax is taken over unselected features only.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    if transition.terminal:
        return transition.reward
    if gamma == 0.0:
        return transition.reward
    nxt = transition.next_state
    if convention == "paper":
        best = masked_argmax(q_target(nxt), nxt)
        value = float(q_online(nxt)[best - 1])
    else:
        best = masked_argmax(q_online(nxt), nxt)
        value = float(q_target(nxt)[best - 1])
    return transition.reward + gamma * value


def ddqn_targets(
    batch: list[Transition],
    theta1: net.NetworkParams,
    theta2: net.NetworkParams,
    gamma: float,
    convention: str = "paper",
    workspace: net.Workspace | None = None,
) -> np.ndarray:
    """``ddqn_target`` of every transition in ``batch``, with one batched forward per network.

    Only the non-terminal next states are scored; each row's argmax is masked
    to unselected features, and ties go to the lower index. Both forwards
    unroll in ``workspace`` when one is given.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    targets = np.array([tr.reward for tr in batch], dtype=np.float64)
    live = [i for i, tr in enumerate(batch) if not tr.terminal]
    if gamma == 0.0 or not live:
        return targets
    states = [batch[i].next_state for i in live]
    q_online = net.forward_batch(theta1, states, workspace)
    q_target = net.forward_batch(theta2, states, workspace)
    chooser, evaluator = (q_target, q_online) if convention == "paper" else (q_online, q_target)
    masked = chooser.copy()
    for row, state in enumerate(states):
        masked[row, [i - 1 for i in state]] = -np.inf
    best = np.argmax(masked, axis=1)
    targets[live] += gamma * evaluator[np.arange(len(live)), best]
    return targets


@dataclass(frozen=True)
class AgentConfig:
    """Training-cadence knobs (counts are in episodes unless named otherwise)."""

    subset_size: int  # features selected per episode
    total_episodes: int
    p: float = 0.9
    warmup_steps: int = 50_000
    batch_size: int = 32
    gamma: float = 0.99
    learn_frequency: int = 5
    sync_frequency: int = 100
    ddqn_convention: str = "paper"

    def __post_init__(self):
        for name in ("subset_size", "total_episodes", "warmup_steps", "batch_size",
                     "learn_frequency", "sync_frequency"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.ddqn_convention not in CONVENTIONS:
            raise ValueError(f"ddqn_convention must be one of {CONVENTIONS}, got {self.ddqn_convention!r}")
        EpsilonSchedule(self.total_episodes, self.p)  # validates p

    def schedule(self) -> EpsilonSchedule:
        return EpsilonSchedule(self.total_episodes, self.p)

    def sync_due(self, episode: int) -> bool:
        """Whether the target network is synced after training episode ``episode`` (1-based)."""
        return episode % self.sync_frequency == 0

    def train_steps_due(self, episode: int) -> int:
        """Train steps due after training episode ``episode``: one if learning is due, one more before a sync."""
        return (episode % self.learn_frequency == 0) + self.sync_due(episode)


def train_step(
    memory: ReplayMemory,
    theta1: net.NetworkParams,
    theta2: net.NetworkParams,
    opt: net.OptimizerState,
    cfg: AgentConfig,
    rng: np.random.Generator,
    workspace: net.Workspace | None = None,
) -> net.NetworkParams:
    """One DDQN update: sample a batch, regress Q(prev)[action] onto the targets.

    The targets come from ``ddqn_targets``; one batched BPTT pass gives the
    batch's mean gradient, applied as a single optimizer step on the online
    network. The only draw from ``rng`` is the replay sample. The forwards,
    the BPTT pass and the step all write into ``workspace``, or into one new
    workspace when none is given.
    """
    ws = net.Workspace() if workspace is None else workspace
    batch = memory.sample(cfg.batch_size, rng)
    targets = ddqn_targets(batch, theta1, theta2, cfg.gamma, cfg.ddqn_convention, ws)
    grads = net.backward(theta1, [tr.prev_state for tr in batch], [tr.action for tr in batch], targets, ws)
    return net.step(theta1, grads, opt, ws)
