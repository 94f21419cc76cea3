"""Spans around calls into the program's public functions, recorded from outside.

``Tracer.patched()`` replaces each traced function or method, in every
``rlselect`` module that holds a reference to it, with a wrapper that
records a span (name, start, end, parent). Nothing inside the program is
edited; leaving the context restores the originals. Spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). A name may be a callable of the call's
# positional arguments, so fit and predict spans carry the classifier kind.
TRACED = (
    ("rlselect.harness", "run_training", "harness.run_training"),
    ("rlselect.harness", "cmd_featurize", "harness.cmd_featurize"),
    ("rlselect.dataset", "load_csv", "dataset.load_csv"),
    ("rlselect.dataset", "save_csv", "dataset.save_csv"),
    ("rlselect.dataset", "project", "dataset.project"),
    ("rlselect.featurize", "map_dalvik_to_letters", "featurize.map"),
    ("rlselect.featurize", "build_vocabulary", "featurize.vocab"),
    ("rlselect.featurize", "vectorize_ngrams", "featurize.vectorize"),
    ("rlselect.featurize", "vectorize_declared", "featurize.vectorize"),
    ("rlselect.baselines", "information_gain", "baselines.information_gain"),
    ("rlselect.baselines", "chi_square", "baselines.chi_square"),
    ("rlselect.classifiers", "cv_accuracy", "harness.cv"),
    ("rlselect.classifiers", "fit", lambda args: f"classifiers.{args[0].name}.fit"),
    ("rlselect.classifiers", "predict", lambda args: f"classifiers.{args[0].kind.name}.predict"),
    ("rlselect.env", "FeatureEnv.step", "env.step"),
    ("rlselect.env", "RewardOracle.__call__", "env.oracle"),
    ("rlselect.agent", "select_action", "agent.select_action"),
    ("rlselect.agent", "train_step", "agent.train_step"),
    ("rlselect.agent", "ReplayMemory.sample", "agent.replay_sample"),
    ("rlselect.net", "forward", "net.forward"),
    ("rlselect.net", "backward", "net.backward"),
    ("rlselect.net", "step", "net.step"),
)

# Every module a traced function may be imported into by name.
MODULES = ("rlselect",) + tuple(f"rlselect.{m}" for m in (
    "dataset", "featurize", "classifiers", "baselines", "net", "agent", "env", "harness", "cli",
))


class Tracer:
    def __init__(self):
        # one span per entry: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._open: list[int] = []

    def _wrap(self, fn, name):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(spans)
            spans.append([label, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = clock()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; yields the span's index."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def patched(self):
        """Trace every TRACED entry for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name in TRACED:
                owner = sys.modules[module_name]
                if "." in attr:  # a method: patch it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(original, name))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(original, name)
                for holder_name in MODULES:
                    holder = sys.modules.get(holder_name)
                    for key, value in list(vars(holder).items()) if holder else ():
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def summary(self, within: int | None = None) -> dict[str, dict]:
        """Per span name: count, total seconds, and self seconds (total minus child spans).

        With ``within``, only that span and the spans below it count.
        """
        child = [0.0] * len(self.spans)
        inside = [within is None] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                inside[i] = inside[i] or inside[parent]
            inside[i] = inside[i] or i == within
        out: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            if inside[i]:
                entry = out[name]
                entry["count"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += end - start - child[i]
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON object, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [[n, s - t0, e - t0, p] for n, s, e, p in self.spans],
                    "summary": self.summary(),
                },
                fh,
            )
