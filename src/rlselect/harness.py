"""Experiment drivers: training runs, evaluation tables, comparisons, stability,
learning curves and timing ratios, and the writers of their output files.

Every command is a pure function of (config, seeds, input files): all
randomness flows from the config's root seed through named sub-seeds, so
reruns produce identical outputs and each component is independently
reproducible. Wall-clock timings are written to a separate ``timings.json``
so the main ``report.json`` stays byte-reproducible.
"""

from __future__ import annotations

import csv
import json
import time
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, classifiers, net
from .classifiers import ClassifierKind
from .config import ConfigError, RunConfig, _count, _with_config_path, load_matrix
from .dataset import SampleMatrix, SplitKind, check_subset, is_index, project, stratified_split
from .env import RewardOracle
from .featurize import cmd_featurize  # kept here: the benchmark calls and traces harness.cmd_featurize
from .files import replace_atomically
from .run import RunReport, TrainingRun, run_training, sub_seed

COMPARE_METHODS = ("rl", "information_gain", "chi_square", "random")


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    with replace_atomically(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """Header ``columns``, then each row's values under those keys in that order."""
    with replace_atomically(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)


def _publish(config: RunConfig, name: str, payload: dict, tables: dict[str, tuple]) -> dict:
    """Write ``<table>.csv`` per ``table: (columns, rows)``, then ``<name>.json``, which it returns."""
    out = _out_dir(config)
    for table, (columns, rows) in tables.items():
        _write_csv(out / f"{table}.csv", columns, rows)
    payload = {"config": config.to_dict(), **payload}
    _write_json(out / f"{name}.json", payload)
    return payload


def cmd_train(config: RunConfig) -> RunReport:
    """Full training run; writes report.json, timings.json, and checkpoint.json."""
    run = run_training(config)
    out = _out_dir(config)
    _write_json(out / "report.json", run.report.to_dict())
    _write_json(out / "timings.json", run.report.timings)
    net.save_checkpoint(out / "checkpoint.json", run.theta1, run.optimizer)
    return run.report


def _nonempty(name: str, values, distinct: bool = False):
    """``values``, refused as a ``ConfigError`` led by ``name:`` if empty or, when ``distinct``, repeating an entry."""
    if not values:
        raise ConfigError(f"{name}: must be nonempty")
    if distinct and len(set(values)) != len(values):
        raise ConfigError(f"{name}: contains duplicates, got {list(values)!r}")
    return values


def _sorted_subset(subset, n_features: int) -> list[int]:
    """``subset`` in increasing order, checked by ``project``'s rule (``dataset.check_subset``) as ``subset:``."""
    _nonempty("subset", subset, distinct=True)
    with suppress(TypeError):  # an unorderable mix (a str among ints) stays unsorted; check_subset rejects it
        subset = sorted(subset)
    sub = _with_config_path("subset: ", lambda: check_subset(subset, n_features))
    return [int(i) for i in sub]  # numpy integers become JSON ints


def _kfold_cv(config: RunConfig, matrix: SampleMatrix, folds: int):
    """Scorer of 0-based column subsets by k-fold CV accuracy over one shared plan.

    The stratified plan depends only on the labels and the seed, so one plan
    serves every projection of the matrix. A fold count that is not an
    integer, below 2, or above the smaller class is a ``ConfigError`` led by ``folds:``.
    """
    _count("folds", folds, 2)
    plan = _with_config_path(
        "folds: ", lambda: stratified_split(matrix, SplitKind.kfold(folds), sub_seed(config.seed, "split"))
    )

    def cv(subset, kind: ClassifierKind = config.classifier, seed_name: str = "cv"):
        """(mean, per-fold) accuracy of ``kind`` on the projected columns."""
        return classifiers.cv_accuracy(
            kind, project(matrix, subset), plan, sub_seed(config.seed, seed_name)
        )

    return cv


def cmd_evaluate(
    config: RunConfig,
    subset: list[int],
    kinds: list[ClassifierKind] | None = None,
    folds: int = 10,
) -> list[dict]:
    """Per-classifier k-fold CV accuracy of one 0-based feature subset."""
    kinds = [ClassifierKind(n) for n in ("dt", "rf", "knn", "svm")] if kinds is None else kinds
    _nonempty("kinds", kinds, distinct=True)
    matrix = load_matrix(config)
    sub = _sorted_subset(subset, matrix.n_features)
    cv = _kfold_cv(config, matrix, folds)

    rows = []
    for kind in kinds:
        mean, per_fold = cv(sub, kind, f"cv-{kind.name}")
        rows.append(
            {
                "classifier": kind.label(),
                "subset_size": len(sub),
                "mean_accuracy": mean,
                "per_fold": per_fold,
            }
        )
    fold_columns = [f"fold{i}" for i in range(folds)]
    table = [r | dict(zip(fold_columns, r["per_fold"])) for r in rows]
    columns = ["classifier", "subset_size", "mean_accuracy", *fold_columns]
    _publish(config, "evaluate", {"subset": sub, "rows": rows}, {"evaluate": (columns, table)})
    return rows


def cmd_compare(
    config: RunConfig,
    sizes: list[int],
    methods: list[str],
    random_draws: int = 20,
    folds: int = 10,
) -> list[dict]:
    """Subset quality per (method, size): selection + k-fold CV accuracy.

    The random baseline is averaged over ``random_draws`` seeded draws and
    reported with its standard deviation.
    """
    for m in methods:
        if m not in COMPARE_METHODS:
            raise ConfigError(f"methods: unknown method {m!r} (use {', '.join(COMPARE_METHODS)})")
    _nonempty("methods", methods, distinct=True)
    _count("random_draws", random_draws, 1)
    matrix = load_matrix(config)
    for size in sizes:
        if not (is_index(size) and 1 <= size <= matrix.n_features):
            raise ConfigError(f"sizes: {size!r} is not an integer in 1..{matrix.n_features}")
    _nonempty("sizes", sizes, distinct=True)
    cv = _kfold_cv(config, matrix, folds)
    ig = baselines.information_gain(matrix) if "information_gain" in methods else None
    chi = baselines.chi_square(matrix) if "chi_square" in methods else None

    rows = []
    for size in sizes:
        for method in methods:
            if method == "random":  # the mean over seeded draws; no one subset to report
                subset = []
                draws = [
                    baselines.random_subset(
                        matrix.n_features, size, sub_seed(config.seed, f"random-{size}-{draw}")
                    )
                    for draw in range(random_draws)
                ]
            else:
                if method == "rl":
                    subset = run_training(replace(config, subset_size=size), matrix).report.final_subset
                else:
                    subset = baselines.top_k(ig if method == "information_gain" else chi, size)
                draws = [subset]
            accs = [cv(s)[0] for s in draws]
            rows.append(
                {
                    "method": method,
                    "size": size,
                    "subset": subset,
                    "accuracy": float(np.mean(accs)),
                    "accuracy_std": float(np.std(accs)),
                }
            )
    table = [r | {"subset": " ".join(str(i) for i in r["subset"])} for r in rows]
    columns = ["method", "size", "accuracy", "accuracy_std", "subset"]
    _publish(config, "compare", {"rows": rows}, {"compare": (columns, table)})
    return rows


def cmd_stability(config: RunConfig, runs: int, folds: int = 10) -> dict:
    """Independent trainings; CV accuracy at every prefix length of each greedy subset."""
    _count("runs", runs, 1)
    matrix = load_matrix(config)
    cv = _kfold_cv(config, matrix, folds)

    per_run = []
    for run in range(runs):
        run_cfg = replace(config, seed=sub_seed(config.seed, f"stability-{run}"))
        order = run_training(run_cfg, matrix).report.selection_order
        curve = [cv(sorted(order[:size]))[0] for size in range(1, len(order) + 1)]
        per_run.append({"run": run, "selection_order": order, "accuracies": curve})

    curves = np.array([r["accuracies"] for r in per_run])
    summary = []
    for size in range(curves.shape[1]):
        col = curves[:, size]
        summary.append(
            {
                "size": size + 1,
                "mean": float(col.mean()),
                "std": float(col.std()),
                "min": float(col.min()),
                "max": float(col.max()),
                "range": float(col.max() - col.min()),
            }
        )
    points = [
        {"run": r["run"], "size": s + 1, "accuracy": acc}
        for r in per_run
        for s, acc in enumerate(r["accuracies"])
    ]
    return _publish(
        config,
        "stability",
        {"runs": per_run, "summary": summary},
        {
            "stability_runs": (["run", "size", "accuracy"], points),
            "stability_summary": (["size", "mean", "std", "min", "max", "range"], summary),
        },
    )


def cmd_curves(config: RunConfig, period: int = 50) -> dict:
    """Greedy-policy accuracy after every training episode, plus period averages.

    The loaded matrix is split 80/20 (stratified): training runs on the 80,
    the held-out 20 provides the test-side accuracy. The driver steps the
    training run itself: after each training episode it runs one greedy
    ``rollout`` through the run's own environment, and it skips the run's
    final selection. Each episode records the epsilon-greedy episode's own
    final reward, and the accuracy of the subset the greedy rollout selects:
    under the training oracle (that rollout's last step reward) and under the
    test oracle (fit on the whole 80, scored on the 20).
    """
    _count("period", period, 1)
    matrix = load_matrix(config)
    outer = stratified_split(matrix, SplitKind.holdout(0.2), sub_seed(config.seed, "curves-split"))
    train_idx, test_idx = outer.train_test()
    train_part = matrix.rows(train_idx)
    run = TrainingRun(config, train_part)  # checks the data before the test oracle is built
    test_oracle = _with_config_path("dataset: ", lambda: RewardOracle.from_parts(
        config.classifier, train_part, matrix.rows(test_idx), sub_seed(config.seed, "test-oracle")
    ))
    run.warm_up()
    rows = []
    for _ in range(config.total_episodes):
        record = run.episode()
        order, rewards = run.rollout(0.0)
        rows.append(
            {
                "episode": record["episode"],
                "epsilon": record["epsilon"],
                "final_reward": record["final_reward"],
                "train_accuracy": rewards[-1],
                "test_accuracy": float(test_oracle(tuple(sorted(order)))),
            }
        )

    period_rows = []
    for start in range(0, len(rows), period):
        chunk = rows[start : start + period]
        period_rows.append(
            {
                "period": start // period + 1,
                "episode_from": chunk[0]["episode"],
                "episode_to": chunk[-1]["episode"],
                "mean_final_reward": float(np.mean([r["final_reward"] for r in chunk])),
                "mean_train_accuracy": float(np.mean([r["train_accuracy"] for r in chunk])),
                "mean_test_accuracy": float(np.mean([r["test_accuracy"] for r in chunk])),
            }
        )

    return _publish(
        config,
        "curves",
        {"period": period, "episodes": rows, "periods": period_rows},
        {
            "curves": (["episode", "epsilon", "final_reward", "train_accuracy", "test_accuracy"], rows),
            "curves_period": (
                ["period", "episode_from", "episode_to", "mean_final_reward",
                 "mean_train_accuracy", "mean_test_accuracy"],
                period_rows,
            ),
        },
    )


def cmd_timing(
    config: RunConfig,
    subsets: list[list[int]],
    kinds: list[ClassifierKind] | None = None,
    repeats: int = 5,
    matrix: SampleMatrix | None = None,
) -> list[dict]:
    """Median fit time on each projected subset as a percentage of the full-matrix fit.

    ``matrix`` is the config's loaded matrix, when the caller has it already.
    """
    _nonempty("subsets", subsets)
    kinds = [ClassifierKind(n) for n in ("dt", "rf", "svm")] if kinds is None else kinds
    _nonempty("kinds", kinds, distinct=True)
    _count("repeats", repeats, 1)
    if matrix is None:
        matrix = load_matrix(config)
    subsets = [_sorted_subset(subset, matrix.n_features) for subset in subsets]
    _nonempty("subsets", [tuple(sub) for sub in subsets], distinct=True)  # the same subset in any order
    seed = sub_seed(config.seed, "timing")

    def median_fit_seconds(m: SampleMatrix, kind: ClassifierKind) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            classifiers.fit(kind, m, seed)
            times.append(time.perf_counter() - start)
        return float(np.median(times))

    rows = []
    for kind in kinds:
        full_time = median_fit_seconds(matrix, kind)
        for sub in subsets:
            sub_time = median_fit_seconds(project(matrix, sub), kind)
            rows.append(
                {
                    "classifier": kind.label(),
                    "subset_size": len(sub),
                    "fit_seconds": sub_time,
                    "full_seconds": full_time,
                    "ratio_pct": 100.0 * sub_time / full_time,
                }
            )
    columns = ["classifier", "subset_size", "fit_seconds", "full_seconds", "ratio_pct"]
    _publish(config, "timing", {"rows": rows}, {"timing": (columns, rows)})
    return rows
