"""A fixed reference computation that tracks how fast the host runs right now.

The benchmark's host lends it a share of a machine whose speed swings by up
to 2x from one few-second phase to the next (see README.md). Timing this
computation next to each measured operation, and scaling the operation's
wall time by ``NOMINAL_S / reference time``, gives the time the operation
would take at a fixed host speed. The computation is the benchmark's own and
never calls the program, so a change to the program moves the scaled time
by as much as it moves the wall time.

It mixes what the workloads spend their time on: interpreter loops, dict
and string work, small float matrix products, and reductions over 0/1
uint8 matrices.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one pass takes in a fast phase of the reference machine (2 vCPU
# Xeon, one BLAS thread); scaled times read in seconds on that host.
NOMINAL_S = 0.032
PASSES = 5

_rng = np.random.default_rng(20220306)
_W = _rng.random((256, 256))
_x = _rng.random((32, 256))
_bits = _rng.integers(0, 2, size=(2000, 100), dtype=np.uint8)
_words = " ".join(f"op{int(i)}" for i in _rng.integers(0, 300, size=20000))


def _work() -> float:
    acc = 0.0
    for _ in range(100):
        acc += float((_x @ _W)[0, 0])
    total = 0
    for i in range(100000):
        total += i * i % 7
    counts: dict[str, int] = {}
    for word in _words.split():
        counts[word] = counts.get(word, 0) + 1
    for j in range(0, 96, 48):
        cols = _bits[:, j : j + 8]
        acc += float(cols.sum()) + np.unique(cols, axis=0).shape[0]
    return acc + total + len(counts)


def seconds() -> float:
    """Median wall time of ``PASSES`` passes of the reference computation.

    The median drops a pass that a momentary stall of the host lengthened;
    the phases of host speed the scaling is meant to follow last seconds.
    """
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
