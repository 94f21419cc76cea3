"""Fixed-size layer sweep, timed from outside with medians of repeated calls.

Classifier fits on a 2000 x 1000 planted matrix at widths 1, 5, 10, 24 and
full, and one network forward, backward and DDQN train step per cell at
H = 256 over a 10-token sequence. The sizes do not depend on the workload.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from rlselect import agent, classifiers, dataset, net
from rlselect.classifiers import ClassifierKind


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * float(np.median(times))


def classifier_sweep(seed: int, n_samples: int = 2000, n_features: int = 1000) -> dict[str, float]:
    rng = np.random.default_rng([seed, 3])
    q = np.full(n_features, 0.5)
    q[rng.choice(n_features, size=10, replace=False)] = 0.8
    X, y = inputs.planted_matrix(rng, n_samples, q)
    names = tuple(f"f{j:04d}" for j in range(n_features))
    full = dataset.SampleMatrix(dataset.FeatureDictionary.from_names(names), X, y)
    cols = sorted(int(j) for j in rng.choice(n_features, size=24, replace=False))
    widths = {"w1": cols[:1], "w5": cols[:5], "w10": cols[:10], "w24": cols}
    parts = {label: dataset.project(full, sub) for label, sub in widths.items()} | {"full": full}

    dt = ClassifierKind.decision_tree()
    out = {f"classifiers.dt.fit_ms.{label}": _median_ms(lambda m=m: classifiers.fit(dt, m, 0), 5) for label, m in parts.items()}
    out["classifiers.dt.fit_ratio_pct.w24"] = 100.0 * out["classifiers.dt.fit_ms.w24"] / out["classifiers.dt.fit_ms.full"]
    for kind, reps in ((ClassifierKind.random_forest(), 1), (ClassifierKind.knn(), 5), (ClassifierKind.linear_svm(), 3)):
        out[f"classifiers.{kind.name}.fit_ms.w24"] = _median_ms(lambda k=kind: classifiers.fit(k, parts["w24"], 0), reps)
    return out


def net_sweep(seed: int, n_features: int = 100, hidden: int = 256, length: int = 10) -> dict[str, float]:
    rng = np.random.default_rng([seed, 6])
    out = {}
    for cell in net.CELLS:
        cfg = net.NetworkConfig.for_features(n_features, embed_dim=8, hidden_dim=hidden, cell=cell)
        theta1 = net.init(cfg, int(rng.integers(0, 2**31 - 1)))
        theta2 = theta1.copy()
        memory = agent.ReplayMemory(64)
        for _ in range(64):
            picks = rng.choice(np.arange(1, n_features + 1), size=length, replace=False)
            prev = tuple(sorted(int(a) for a in picks[:-1]))  # BOS token + 9 features = 10 steps
            nxt = tuple(sorted(prev + (int(picks[-1]),)))
            memory.push(agent.Transition(prev, int(picks[-1]), float(rng.random()), nxt, False))
        state, action = memory.contents()[0].prev_state, memory.contents()[0].action
        agent_cfg = agent.AgentConfig(subset_size=length, total_episodes=1, batch_size=32, gamma=0.99)
        opt = net.OptimizerState(total_steps=10_000, base_rate=1e-4)
        step_rng = np.random.default_rng(0)
        out[f"net.{cell}.forward_ms"] = _median_ms(lambda: net.forward(theta1, state), 21)
        out[f"net.{cell}.backward_ms"] = _median_ms(lambda: net.backward(theta1, state, action, 0.5), 11)
        out[f"net.{cell}.train_step_ms"] = _median_ms(
            lambda: agent.train_step(memory, theta1, theta2, opt, agent_cfg, step_rng), 3
        )
    return out
