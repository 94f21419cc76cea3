"""The three workloads: what each feeds the program, runs, and checks.

A workload writes its inputs from the seed (``prepare``), loads what a user
loads before any work (``setup``), then runs rounds: ``round(i)`` is one
operation, and ``rounds`` operations make one cycle of measured work.
``check`` verifies a cycle's outputs and returns the problems found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from rlselect import baselines, classifiers, dataset, harness
from rlselect.classifiers import ClassifierKind

TOP_K = 24  # the paper's headline subset size for the filter baseline
SWEEP = {"n_samples": 2000, "n_features": 1000, "hidden": 256}  # layer-sweep sizes
TINY_SWEEP = {"n_samples": 200, "n_features": 60, "hidden": 16}


# ------------------------------------------------------------------ select


@dataclass
class Select:
    """``run_training`` on a planted CSV: ``rounds`` runs per cycle, differing only in root seed."""

    name: str
    shape: dict
    rounds: int
    random_checks: int  # extra random subsets whose oracle rewards are re-derived
    sweep: dict = field(default_factory=lambda: dict(SWEEP))

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.inputs = inputs.write_select_inputs(work, seed, self.shape, self.rounds)

    def probe_args(self) -> list[str]:
        return ["select", str(self.inputs.config_paths[0])]

    def setup(self) -> None:
        self.configs = [harness.RunConfig.from_file(p) for p in self.inputs.config_paths]
        self.matrix = harness.load_matrix(self.configs[0])

    def round(self, i: int):
        return harness.run_training(self.configs[i], matrix=self.matrix)

    def subset_acc(self, results) -> float:
        """Mean final reward of the runs of one cycle."""
        return float(np.mean([r.report.final_reward for r in results]))

    def fingerprint(self, result) -> bytes:
        """The run's report.json bytes."""
        return json.dumps(result.report.to_dict(), indent=2, sort_keys=True).encode()

    def check(self, results) -> list[str]:
        problems = []
        for i, result in enumerate(results):
            if result is None:  # a failed operation, counted apart
                continue
            cfg = self.configs[i]
            rep, oracle = result.report, result.oracle
            problems += checks.subset(rep.final_subset, rep.selection_order, cfg.subset_size, self.matrix.n_features)
            problems += checks.oracle_count(
                oracle.fit_count, oracle.hit_count, rep.warmup_transitions, cfg.total_episodes, cfg.subset_size
            )
            if len(rep.episodes) != cfg.total_episodes:
                problems.append(f"{len(rep.episodes)} episodes reported, {cfg.total_episodes} configured")
            if rep.warmup_transitions < cfg.warmup_steps:
                problems.append(f"warm-up stored {rep.warmup_transitions} < {cfg.warmup_steps} transitions")
            order = rep.selection_order
            subsets = [sorted(order[: w + 1]) for w in range(len(order))]
            if i == 0:
                rng = np.random.default_rng([self.seed, 4])
                for _ in range(self.random_checks):
                    width = int(rng.integers(1, cfg.subset_size + 1))
                    subsets.append(sorted(int(j) for j in rng.choice(self.matrix.n_features, width, replace=False)))
            for cols in subsets:
                problems += self._check_reward(oracle, cols)
            problems += checks.same_values(
                "final reward", [rep.final_reward], [oracle(tuple(j + 1 for j in rep.final_subset))]
            )
        return problems

    @staticmethod
    def _check_reward(oracle, cols) -> list[str]:
        """Re-fit the oracle's classifier on one subset; check the DT property and the memoized reward."""
        fit_part, score_part = oracle.fit_part, oracle.score_part
        clf = classifiers.fit(oracle.kind, dataset.project(fit_part, cols), oracle.seed)
        pred = classifiers.predict(clf, score_part.X[:, cols])
        return checks.dt_majority(fit_part.X[:, cols], fit_part.y, score_part.X[:, cols], pred) + checks.reward(
            pred, score_part.y, oracle(tuple(j + 1 for j in cols))
        )


_AGENT = {"p": 0.5, "batch_size": 32, "learn_frequency": 1, "ddqn_convention": "paper"}

# Shaped like the acceptance config (100 features, 10 planted at q = 0.75,
# RNN H=256, subset 10, gamma 0) but with a short warm-up and few episodes,
# so that one run is seconds and the DT reward oracle holds most of it.
SELECT_DT = dict(
    n_samples=2000,
    n_features=100,
    planted_q=[0.75] * 10,
    network={"embed_dim": 8, "hidden_dim": 256, "cell": "rnn", "head": "linear"},
    agent=_AGENT | {"subset_size": 10, "total_episodes": 8, "warmup_steps": 64, "gamma": 0.0, "sync_frequency": 100},
)

# Few features and short subsets: reward fits are narrow and mostly memoized,
# so the GRU network (with gamma > 0, so DDQN target forwards run) holds the
# time. Every column carries a graded signal, so the subsets the agent ends
# on score alike across seeds.
SELECT_NET = dict(
    n_samples=2000,
    n_features=16,
    planted_q=list(np.round(np.linspace(0.56, 0.72, 16), 4)),
    network={"embed_dim": 8, "hidden_dim": 256, "cell": "gru", "head": "linear"},
    agent=_AGENT | {"subset_size": 4, "total_episodes": 20, "warmup_steps": 100, "gamma": 0.5, "sync_frequency": 10},
)


# ------------------------------------------------------------------ ingest


@dataclass
class Ingest:
    """Featurize a disassembly corpus, load the CSV, rank by IG and chi-square, and
    cross-validate the top-24 IG subset with dt, rf, knn and svm."""

    name: str
    shape: dict
    folds: int
    kinds: tuple
    rounds: int = 1
    sweep: dict = field(default_factory=lambda: dict(SWEEP))

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.corpus = inputs.write_corpus(work, seed, self.shape)
        self.split_seed = int(np.random.default_rng([seed, 5]).integers(0, 2**31 - 1))

    def probe_args(self) -> list[str]:
        return ["ingest"]

    def setup(self) -> None:
        pass

    def round(self, i: int) -> dict:
        csv_path = self.work / "features.csv"
        featurized = harness.cmd_featurize(self.corpus.root, self.corpus.ngram_n, self.corpus.ngram_k, csv_path)
        loaded = dataset.load_csv(csv_path)
        ig = baselines.information_gain(loaded)
        chi = baselines.chi_square(loaded)
        top = baselines.top_k(ig, TOP_K)
        projected = dataset.project(loaded, top)
        plan = dataset.stratified_split(projected, dataset.SplitKind.kfold(self.folds), self.split_seed)
        cv = {k.name: classifiers.cv_accuracy(k, projected, plan, self.split_seed) for k in self.kinds}
        return {
            "featurized": featurized, "loaded": loaded,
            "ig": ig, "chi": chi, "top": top, "projected": projected, "plan": plan, "cv": cv,
        }

    def subset_acc(self, results) -> float:
        """Mean k-fold accuracy of the top-24 IG subset over the four classifiers."""
        return float(np.mean([mean for mean, _ in results[0]["cv"].values()]))

    def fingerprint(self, result) -> bytes:
        cv = {k: [mean, per_fold] for k, (mean, per_fold) in result["cv"].items()}
        return (self.work / "features.csv").read_bytes() + json.dumps([result["top"], cv]).encode()

    def check(self, results) -> list[str]:
        out = results[0]
        m, corpus = out["loaded"], self.corpus
        names, cats = m.dictionary.names, m.dictionary.categories
        problems = checks.same_matrix(out["featurized"], m)
        if not np.array_equal(m.y, corpus.labels):
            problems.append("labels differ from the corpus layout")
        problems += checks.declared_bits(names, cats, m.X, corpus.declared)
        problems += checks.ngram_bits(names, cats, m.X, corpus.letters, corpus.labels, corpus.ngram_n, corpus.ngram_k)
        ref_ig, ref_chi = checks.reference_scores(m.X, m.y)
        problems += checks.scores("information gain", out["ig"].scores, ref_ig)
        problems += checks.scores("chi-square", out["chi"].scores, ref_chi)
        ref_top = sorted(int(j) for j in np.lexsort((np.arange(ref_ig.size), -out["ig"].scores))[:TOP_K])
        problems += checks.same_values("top-24 subset", out["top"], ref_top)
        for name, (mean, per_fold) in out["cv"].items():
            problems += checks.folds(name, per_fold, mean)
        if "knn" in out["cv"]:
            k = next(kind.k for kind in self.kinds if kind.name == "knn")
            ref = checks.knn_reference(out["projected"].X, out["projected"].y, out["plan"].assignments, k)
            problems += checks.same_values("knn fold accuracies", out["cv"]["knn"][1], ref)
        return problems


# Sized so featurizing, the four CV fits and loading share the round, and
# random forest (30 trees) does not swamp it.
INGEST = dict(
    n_per_class=150,
    min_letters=500,
    max_letters=1500,
    unmapped_rate=0.3,
    chain_mix=0.3,
    planted_names=6,
    name_lift=0.2,
    ngram_n=5,
    ngram_k=256,
)
KINDS = (ClassifierKind("dt"), ClassifierKind("rf", trees=30), ClassifierKind("knn"), ClassifierKind("svm"))


def make(name: str, tiny: bool = False):
    """The named workload; ``tiny`` shrinks every size for the self-tests."""
    if name in ("select-dt", "select-net"):
        shape = dict(SELECT_DT if name == "select-dt" else SELECT_NET)
        rounds = 12 if name == "select-dt" else 3
        if tiny:
            shape["n_samples"] = 300
            shape["network"] = shape["network"] | {"hidden_dim": 16}
            shape["agent"] = shape["agent"] | {"total_episodes": 3, "warmup_steps": 40}
            return Select(name, shape, rounds=2, random_checks=4, sweep=TINY_SWEEP)
        return Select(name, shape, rounds, random_checks=40)
    if name == "ingest-eval":
        if tiny:
            shape = INGEST | {"n_per_class": 20, "min_letters": 100, "max_letters": 200, "ngram_k": 32}
            kinds = (ClassifierKind("dt"), ClassifierKind("rf", trees=3), ClassifierKind("knn"), ClassifierKind("svm", epochs=2))
            return Ingest(name, shape, folds=3, kinds=kinds, sweep=TINY_SWEEP)
        return Ingest(name, INGEST, folds=5, kinds=KINDS)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("select-dt", "select-net", "ingest-eval")
