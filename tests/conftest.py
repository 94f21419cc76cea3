"""Shared test helpers: the finite-difference gradient oracle, matrix builders, an allocation
tracer, and the tiny run config and bad config values of the run-layer tests."""

import tracemalloc

import numpy as np

from rlselect import net
from rlselect.classifiers import ClassifierKind
from rlselect.config import RunConfig
from rlselect.dataset import FeatureDictionary, SampleMatrix, SyntheticSpec


def finite_difference_gradients(params, state, action, target, h=1e-5):
    """Central-difference gradients of the scalar loss, tensor by tensor.

    Independent of the backpropagation path on purpose: it only ever calls
    ``forward`` and perturbs one parameter at a time.
    """
    return finite_difference_batch_gradients(params, [state], [action], [target], h)


def finite_difference_batch_gradients(params, states, actions, targets, h=1e-5):
    """Central differences of the batch-mean loss, computed through B = 1 ``forward`` calls."""

    def loss():
        return np.mean([
            0.5 * (net.forward(params, s)[a - 1] - t) ** 2 for s, a, t in zip(states, actions, targets)
        ])

    grads = {}
    for name, tensor in params.tensors.items():
        g = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            lp = loss()
            tensor[idx] = orig - h
            lm = loss()
            tensor[idx] = orig
            g[idx] = (lp - lm) / (2.0 * h)
            it.iternext()
        grads[name] = g
    return grads


def max_relative_error(analytic, numeric, floor=1e-5):
    """Largest guarded relative error across all tensors."""
    worst = 0.0
    for name in analytic:
        a, b = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


def matrix_from_rows(rows, labels, categories="synthetic"):
    rows = np.asarray(rows, dtype=np.uint8)
    names = tuple(f"f{i}" for i in range(rows.shape[1]))
    return SampleMatrix(FeatureDictionary.from_names(names, categories), rows, np.asarray(labels, dtype=np.uint8))


def traced(call):
    """``call()``'s result, then the bytes its allocations still hold and their peak."""
    tracemalloc.start()
    try:
        return (call(), *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def tiny_config(out_dir, **overrides) -> RunConfig:
    base = dict(
        synthetic=SyntheticSpec(n_samples=240, n_features=12, informative=(0, 1, 2), q=0.9, seed=5),
        classifier=ClassifierKind.decision_tree(),
        embed_dim=4,
        hidden_dim=8,
        subset_size=3,
        total_episodes=4,
        warmup_steps=12,
        batch_size=4,
        learn_frequency=2,
        sync_frequency=3,
        replay_capacity=200,
        seed=11,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return RunConfig(**base)


# (dotted path, bad value): each must be rejected at load, naming its path
BAD_CONFIG_VALUES = [
    ("network.hiden_dim", 8),
    ("agent.total_episodes", 2.5),
    ("seed", "abc"),
    ("oracle_fit_fraction", 1.5),
    ("oracle_fit_fraction", 1e-17),  # in (0, 1), but leaves a score fraction of 1.0
    ("network.embed_dim", 0),
    ("agent.p", True),
    ("classifier.tress", 500),
    ("replay_capacity", 2),  # below the batch of 4: no batch could be sampled
    ("optimizer.base_rate", float("nan")),  # NaN passes every comparison check
    ("optimizer.base_rate", float("inf")),
    ("optimizer.clip_norm", float("nan")),  # +inf stays valid: it never clips
]

# the SVM's own fields are checked only when the classifier is the SVM
SVM = {"classifier": ClassifierKind.linear_svm()}
BAD_SVM_VALUES = [("classifier.lam", float("nan")), ("classifier.lam", float("inf")), ("classifier.lam", 0.0)]


def config_dict_with(out_dir, path: str, value, **overrides) -> dict:
    d = tiny_config(out_dir, **overrides).to_dict()
    *sections, key = path.split(".")
    target = d
    for section in sections:
        target = target[section]
    target[key] = value
    return d


def write_sample(dirpath, name, mnemonics, names):
    (dirpath / f"{name}.opcodes").write_text("\n".join(mnemonics) + "\n")
    (dirpath / f"{name}.names").write_text("\n".join(names) + "\n")
