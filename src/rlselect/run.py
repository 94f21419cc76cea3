"""One training run: a warm-up, training episodes and the final greedy selection.

All randomness flows from the config's root seed through named sub-seeds
(``sub_seed``), so a rerun repeats every pick, reward and report byte.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, agent, net  # agent.* through the module, so a tracer that rebinds them sees the calls
from .agent import ReplayMemory, State, Transition
from .config import RunConfig, _with_config_path, load_matrix
from .dataset import SampleMatrix
from .env import FeatureEnv, RewardOracle


def sub_seed(root_seed: int, name: str) -> int:
    """Stable named sub-stream seed derived from the root seed."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class RunReport:
    config: dict
    episodes: list[dict]
    selection_order: list[int]  # 0-based dataset columns, in pick order
    final_subset: list[int]  # same indices, sorted
    final_subset_names: list[str]
    final_reward: float
    warmup_transitions: int
    oracle_stats: dict
    timings: dict = field(default_factory=dict)
    version: str = __version__

    def to_dict(self) -> dict:
        # timings stay out: reports must be byte-identical across reruns
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "timings"}


class TrainingRun:
    """One training run as steps: ``warm_up()``, ``episode()`` per training
    episode, then ``finish()``, the final greedy selection.

    All run state is held in fields, readable at any episode boundary. The
    constructor loads the data and builds the environment and the oracle,
    each of which checks what it is given. Their ``ValueError`` becomes a
    ``ConfigError`` that names the config path, before any fit.

    ``finish()`` drops what only train steps read, the network workspace and
    the target network ``theta2``: a finished run holds ``theta1``, the
    oracle and the report, beside its replay and episode records, and takes
    no more episodes.
    """

    def __init__(self, config: RunConfig, matrix: SampleMatrix | None = None):
        self.started = time.perf_counter()
        if matrix is None:
            matrix = load_matrix(config)
        n = matrix.n_features
        self.config, self.matrix, self.agent = config, matrix, config.agent_config()
        self.env = _with_config_path("agent.", lambda: FeatureEnv(n, self.agent.subset_size))
        self.oracle = _with_config_path("dataset: ", lambda: RewardOracle(
            config.classifier, matrix, sub_seed(config.seed, "oracle"), fit_fraction=config.oracle_fit_fraction,
        ))
        self.theta1 = net.init(config.network_config(n), sub_seed(config.seed, "init"))
        self.theta2: net.NetworkParams | None = self.theta1.copy()  # the DDQN target network; dropped by finish()
        self.optimizer = config.optimizer_state()
        self.replay = ReplayMemory(config.replay_capacity)
        self.workspace: net.Workspace | None = net.Workspace()  # the train steps' arrays; dropped by finish()
        self.rng = np.random.default_rng(sub_seed(config.seed, "agent"))
        self.schedule = self.agent.schedule()
        self.episodes: list[dict] = []
        self.warmup_transitions = 0
        self.warmed = self.started  # end of the warm-up
        self.train_steps, self.train_step_s = 0, 0.0
        self.report: RunReport | None = None

    def rollout(self, eps: float, memory: ReplayMemory | None = None):
        """One epsilon-greedy episode under ``theta1``; each transition goes to ``memory`` if given.

        Returns (actions in pick order, 1-based; step rewards). The actions
        depend only on ``theta1`` and the generator, never on a reward, so
        they are all picked first and the episode's states are scored in one
        ``RewardOracle.score`` call. A greedy rollout (``eps == 0``) draws
        nothing from the run's generator; its forwards unroll in the run's
        workspace while it has one.
        """
        episode = self._pick(eps)
        (rewards,) = self._score([episode], memory)
        return episode[1], rewards

    def _pick(self, eps: float) -> tuple[list[State], list[int]]:
        """One episode's picks under ``theta1``: (states from empty to full, actions in pick order)."""
        states, order = [self.env.reset()], []
        done = False
        while not done:
            action = agent.select_action(states[-1], eps, self.theta1, self.rng, self.workspace)
            state, done = self.env.step(states[-1], action)
            states.append(state)
            order.append(action)
        return states, order

    def _score(self, episodes, memory: ReplayMemory | None) -> list[list[float]]:
        """Each picked episode's step rewards, from one ``RewardOracle.score`` call over all their states.

        Each transition goes to ``memory`` if given, in episode and step order.
        """
        rewards = self.oracle.score([state for states, _ in episodes for state in states[1:]])
        out, at = [], 0
        for states, order in episodes:
            steps, at = rewards[at : at + len(order)], at + len(order)
            if memory is not None:
                for t, action in enumerate(order):
                    memory.push(Transition(states[t], action, steps[t], states[t + 1], t == len(order) - 1))
            out.append(steps)
        return out

    def warm_up(self) -> None:
        """Uniform-random episodes until the replay holds ``warmup_steps`` transitions.

        A warm-up pick is an epsilon = 1 draw from the generator: it runs no
        forward and reads no reward. So every episode is picked first, and
        all their states are scored in one ``RewardOracle.score`` call, which
        splits its misses into bounded passes (``classifiers.sets_per_pass``).
        The replay, the generator and the oracle's counts end as one
        ``rollout`` per episode would leave them.
        """
        n_episodes = -(-(self.agent.warmup_steps - self.replay.inserted) // self.agent.subset_size)
        self._score([self._pick(1.0) for _ in range(n_episodes)], self.replay)
        self.warmup_transitions = self.replay.inserted
        self.warmed = time.perf_counter()

    def episode(self) -> dict:
        """The next training episode, its due train steps and target sync; returns its record.

        A finished run (``report`` set) takes no more episodes: it holds no target network.
        """
        if self.report is not None:
            raise RuntimeError(f"the run is finished after {len(self.episodes)} episodes; it takes no more")
        settings, number = self.agent, len(self.episodes) + 1
        eps = self.schedule.epsilon(number - 1)
        try:
            _, rewards = self.rollout(eps, self.replay)
            due = settings.train_steps_due(number)
            if due and len(self.replay) >= settings.batch_size:
                t_step = time.perf_counter()
                for _ in range(due):
                    agent.train_step(self.replay, self.theta1, self.theta2, self.optimizer, settings, self.rng, self.workspace)
                self.train_step_s += time.perf_counter() - t_step
                self.train_steps += due
            if settings.sync_due(number):
                net.sync(self.theta1, self.theta2)
        except Exception as exc:
            raise RuntimeError(f"training failed at episode {number}: {exc}") from exc
        record = {
            "episode": number,
            "epsilon": eps,
            "step_rewards": [float(r) for r in rewards],
            "final_reward": float(rewards[-1]),
        }
        self.episodes.append(record)
        return record

    def finish(self) -> RunReport:
        """The final greedy selection; sets and returns ``report``.

        A finished run trains no more, so it holds no train-step arrays and no
        target network: ``workspace`` and ``theta2`` become ``None``. The
        greedy rollout, the report and a checkpoint read ``theta1`` only. On a
        finished run it returns the report it has, with no second rollout.
        """
        if self.report is not None:
            return self.report
        self.workspace = self.theta2 = None
        t_train = time.perf_counter()
        order, _ = self.rollout(0.0)
        subset = tuple(sorted(order))
        final_reward = float(self.oracle(subset))
        t_end = time.perf_counter()
        self.report = RunReport(
            config=self.config.to_dict(),
            episodes=self.episodes,
            selection_order=[a - 1 for a in order],
            final_subset=[a - 1 for a in subset],
            final_subset_names=[self.matrix.dictionary.names[a - 1] for a in subset],
            final_reward=final_reward,
            warmup_transitions=self.warmup_transitions,
            oracle_stats={"fits": self.oracle.fit_count, "cache_hits": self.oracle.hit_count},
            timings={
                "warmup_s": self.warmed - self.started,
                "train_s": t_train - self.warmed,
                "eval_s": t_end - t_train,
                "total_s": t_end - self.started,
                "oracle_s": self.oracle.miss_seconds,  # the batched scoring passes
                "oracle_passes": self.oracle.pass_count,
                "train_step_s": self.train_step_s,
                "train_steps": self.train_steps,
            },
        )
        return self.report


def run_training(config: RunConfig, matrix: SampleMatrix | None = None) -> TrainingRun:
    """Warm-up, ``total_episodes`` training episodes and the final greedy selection; returns the run."""
    run = TrainingRun(config, matrix)
    run.warm_up()
    for _ in range(config.total_episodes):
        run.episode()
    run.finish()
    return run
