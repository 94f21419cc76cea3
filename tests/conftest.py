"""Shared test helpers: the finite-difference gradient oracle, matrix builders and an allocation tracer."""

import tracemalloc

import numpy as np

from rlselect import net
from rlselect.dataset import FeatureDictionary, SampleMatrix


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
