"""Experiment drivers: training runs, evaluation tables, comparisons, stability,
learning curves and timing ratios, plus the run-config schema they share.

Every command is a pure function of (config, seeds, input files): all
randomness flows from the config's root seed through named sub-seeds, so
reruns produce identical outputs and each component is independently
reproducible. Wall-clock timings are written to a separate ``timings.json``
so the main ``report.json`` stays byte-reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__, baselines, classifiers, net
from .agent import AgentConfig, ReplayMemory, Transition, select_action, train_step
from .classifiers import ClassifierKind
from .dataset import (
    SampleMatrix,
    SplitKind,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    project,
    stratified_split,
)
from .env import FeatureEnv, RewardOracle
from .featurize import cmd_featurize  # kept here: the benchmark calls and traces harness.cmd_featurize
from .net import NetworkConfig, OptimizerState

COMPARE_METHODS = ("rl", "information_gain", "chi_square", "random")

# Table-6 operating point, used when a run is flagged paper-scale.
PAPER_SCALE = {
    "warmup_steps": 50_000,
    "replay_capacity": 200_000,
    "batch_size": 32,
    "gamma": 0.99,
    "base_rate": 0.0003,
    "learn_frequency": 5,
}


class ConfigError(ValueError):
    """Unusable run configuration (bad file, bad field, inconsistent values)."""


def sub_seed(root_seed: int, name: str) -> int:
    """Stable named sub-stream seed derived from the root seed."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _encode(value):
    """JSON form of a config value: dataclasses become objects, tuples lists."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


# JSON values accepted for each scalar annotation (a JSON 1 is a valid float)
_JSON_TYPES = {int: int, float: (int, float), str: str, NoneType: NoneType}


def _decode(tp, value, path: str):
    """``value`` as parsed from JSON, checked against the annotation ``tp``."""
    if get_origin(tp) is UnionType:
        if value is None and NoneType in get_args(tp):
            return None
        errors = []
        for arm in get_args(tp):
            try:
                return _decode(arm, value, path)
            except ConfigError as exc:
                errors.append(exc)
        raise errors[0]
    if is_dataclass(tp):
        try:
            return tp(**_read_fields(tp, value, path))
        except ConfigError:
            raise
        except ValueError as exc:  # the class's own range check names the field
            raise ConfigError(f"{path}.{exc}") from exc
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected list, got {value!r}")
        (item, _) = get_args(tp)
        return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    # bool is an int subclass, but true/false is never a count or a rate
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[tp]):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    return value


def _read_fields(cls, obj, path: str, location: dict[str, tuple[str, str]] | None = None) -> dict:
    """Constructor arguments of dataclass ``cls`` read strictly from the JSON object ``obj``.

    ``location`` places a field at ``(section, key)``, one object down;
    other fields are keys of ``obj`` named after the field. Unknown keys,
    wrong types and missing required keys raise ``ConfigError`` naming the
    dotted path.
    """
    hints = get_type_hints(cls)
    layout: dict[str | None, dict[str, Field]] = {None: {}}  # section -> key -> field
    for f in fields(cls):
        section, key = (location or {}).get(f.name, (None, f.name))
        layout.setdefault(section, {})[key] = f

    def join(*keys):
        return ".".join(k for k in (path, *keys) if k)

    kwargs = {}
    for section, keys in layout.items():
        src = obj if section is None else obj.get(section, {})
        if not isinstance(src, dict):
            raise ConfigError(f"{join(section) or 'config'}: expected object, got {src!r}")
        for key in src:
            if key not in keys and not (section is None and key in layout):
                raise ConfigError(f"{join(section, key)}: unknown key")
        for key, f in keys.items():
            if key in src:
                kwargs[f.name] = _decode(hints[f.name], src[key], join(section, key))
            elif f.default is MISSING:
                raise ConfigError(f"{join(section, key)}: missing key")
    return kwargs


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs; fully round-trippable through JSON.

    Desk-scale defaults keep a full training run in the minutes range;
    ``paper_scale()`` restores the published operating point.
    """

    csv_path: str | None = None
    synthetic: SyntheticSpec | None = SyntheticSpec(
        n_samples=2000, n_features=100, informative=tuple(range(10)), q=0.75, seed=7
    )
    classifier: ClassifierKind = ClassifierKind.decision_tree()
    embed_dim: int = 8
    hidden_dim: int = 256
    cell: str = "rnn"
    head: str = "linear"
    subset_size: int = 10
    total_episodes: int = 300
    p: float = 0.5
    warmup_steps: int = 2_000
    batch_size: int = 32
    gamma: float = 0.0
    learn_frequency: int = 1
    sync_frequency: int = 100
    ddqn_convention: str = "paper"
    replay_capacity: int = 20_000
    base_rate: float = 0.1
    total_steps: int | None = None
    clip_norm: float = 5.0
    oracle_fit_fraction: float = 0.8
    seed: int = 0
    out_dir: str = "runs/out"

    def __post_init__(self):
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigError("dataset: config needs exactly one of csv or synthetic")
        if not 0.0 < self.oracle_fit_fraction < 1.0:
            raise ConfigError(
                f"oracle_fit_fraction must be in (0, 1), got {self.oracle_fit_fraction}"
            )
        # Each component's validator leads its message with the name of the
        # field it rejects; the prefix turns that name into the config path.
        checks = (
            ("agent.", self.agent_config),
            ("network.", lambda: self.network_config(n_features=1)),  # width unknown before load
            ("optimizer.", self.optimizer_state),
            ("replay_", lambda: ReplayMemory(self.replay_capacity)),
        )
        for prefix, build in checks:
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{prefix}{exc}") from exc

    def agent_config(self) -> AgentConfig:
        return AgentConfig(**{f.name: getattr(self, f.name) for f in fields(AgentConfig)})

    def network_config(self, n_features: int) -> NetworkConfig:
        return NetworkConfig.for_features(
            n_features, self.embed_dim, self.hidden_dim, self.cell, self.head
        )

    def optimizer_state(self) -> OptimizerState:
        total = self.total_steps
        if total is None:
            # Learn events per run, doubled so the rate only halves by the end.
            events = (
                self.total_episodes // self.learn_frequency
                + self.total_episodes // self.sync_frequency
            )
            total = max(1, 2 * events)
        return OptimizerState(total_steps=total, base_rate=self.base_rate, clip_norm=self.clip_norm)

    def paper_scale(self) -> "RunConfig":
        return replace(self, **PAPER_SCALE)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            section, key = _LOCATION.get(f.name, (None, f.name))
            if section == "dataset" and value is None:
                continue  # only the one data source in use is written
            (out if section is None else out.setdefault(section, {}))[key] = _encode(value)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        kwargs = _read_fields(cls, d, "", _LOCATION)
        for name in ("csv_path", "synthetic"):
            kwargs.setdefault(name, None)  # a config file names its one data source
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


# Where a RunConfig field sits in a config file, as (section, key); fields not
# listed are top-level keys named after the field.
_LOCATION = {
    "csv_path": ("dataset", "csv"),
    "synthetic": ("dataset", "synthetic"),
    **{name: ("network", name) for name in ("embed_dim", "hidden_dim", "cell", "head")},
    **{f.name: ("agent", f.name) for f in fields(AgentConfig)},
    **{name: ("optimizer", name) for name in ("base_rate", "total_steps", "clip_norm")},
}


def load_matrix(config: RunConfig) -> SampleMatrix:
    if config.csv_path is not None:
        return load_csv(config.csv_path)
    return generate_synthetic(config.synthetic)


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


def _episode(env: FeatureEnv, params: net.NetworkParams, eps: float, rng, memory=None):
    """One epsilon-greedy episode under ``params``; each transition goes to ``memory`` if given.

    Returns (actions in pick order, 1-based; step rewards). ``select_action``
    draws from ``rng`` only when ``eps > 0``, so a greedy episode leaves the
    stream untouched.
    """
    state = env.reset()
    order, rewards = [], []
    done = False
    while not done:
        prev = state
        action = select_action(state, eps, params, rng)
        state, reward, done = env.step(state, action)
        if memory is not None:
            memory.push(Transition(prev, action, reward, state, done))
        order.append(action)
        rewards.append(reward)
    return order, rewards


@dataclass
class TrainResult:
    theta1: net.NetworkParams
    theta2: net.NetworkParams
    optimizer: OptimizerState
    report: RunReport
    oracle: RewardOracle


def run_training(
    config: RunConfig,
    matrix: SampleMatrix | None = None,
    per_episode=None,
) -> TrainResult:
    """Warm-up, training episodes, and the final greedy evaluation.

    ``per_episode(record, theta1, env)`` is invoked after every training
    episode with the episode's report record, the learning network and the
    run's own environment (the learning-curve driver hooks in here; episodes
    it steps through ``env`` share the run's reward oracle and its counts).
    A matrix whose oracle fit part lacks a class, or whose oracle score part
    is empty, is a ``ConfigError``, raised before any fit.
    """
    t0 = time.perf_counter()
    if matrix is None:
        matrix = load_matrix(config)
    n = matrix.n_features
    cfg = config.agent_config()
    if cfg.subset_size > n:
        raise ConfigError(f"subset_size {cfg.subset_size} exceeds feature count {n}")

    oracle = RewardOracle(
        config.classifier, matrix, sub_seed(config.seed, "oracle"),
        fit_fraction=config.oracle_fit_fraction,
    )
    benign, malware = oracle.fit_part.class_counts()
    if not (benign and malware):
        raise ConfigError(
            f"dataset: the reward oracle's fit part has {benign} benign and {malware} malware rows; "
            "both classes are required"
        )
    if oracle.score_part.n_samples == 0:
        raise ConfigError(
            f"dataset: the reward oracle's score part is empty ({matrix.n_samples} rows, "
            f"oracle_fit_fraction {config.oracle_fit_fraction}); it needs at least one row"
        )
    env = FeatureEnv(n, cfg.subset_size, oracle)
    theta1 = net.init(config.network_config(n), sub_seed(config.seed, "init"))
    theta2 = theta1.copy()
    opt = config.optimizer_state()
    memory = ReplayMemory(config.replay_capacity)
    rng = np.random.default_rng(sub_seed(config.seed, "agent"))
    schedule = cfg.schedule()

    # Warm-up: uniform-random episodes until enough transitions are stored.
    while memory.inserted < cfg.warmup_steps:
        _episode(env, theta1, 1.0, rng, memory)
    warmup_transitions = memory.inserted
    t_warm = time.perf_counter()

    episodes = []
    train_steps, train_step_s = 0, 0.0
    for episode in range(1, cfg.total_episodes + 1):
        eps = schedule.epsilon(episode - 1)
        try:
            _, rewards = _episode(env, theta1, eps, rng, memory)
            # one step when learning is due, one more before each target sync
            due = (episode % cfg.learn_frequency == 0) + (episode % cfg.sync_frequency == 0)
            if due and len(memory) >= cfg.batch_size:
                t_step = time.perf_counter()
                for _ in range(due):
                    train_step(memory, theta1, theta2, opt, cfg, rng)
                train_step_s += time.perf_counter() - t_step
                train_steps += due
            if episode % cfg.sync_frequency == 0:
                net.sync(theta1, theta2)
        except Exception as exc:
            raise RuntimeError(f"training failed at episode {episode}: {exc}") from exc
        record = {
            "episode": episode,
            "epsilon": eps,
            "step_rewards": [float(r) for r in rewards],
            "final_reward": float(rewards[-1]),
        }
        episodes.append(record)
        if per_episode is not None:
            per_episode(record, theta1, env)
    t_train = time.perf_counter()

    order, _ = _episode(env, theta1, 0.0, rng)
    subset = tuple(sorted(order))
    final_reward = float(oracle(subset))
    t_end = time.perf_counter()

    report = RunReport(
        config=config.to_dict(),
        episodes=episodes,
        selection_order=[a - 1 for a in order],
        final_subset=[a - 1 for a in subset],
        final_subset_names=[matrix.dictionary.names[a - 1] for a in subset],
        final_reward=final_reward,
        warmup_transitions=warmup_transitions,
        oracle_stats={"fits": oracle.fit_count, "cache_hits": oracle.hit_count},
        timings={
            "warmup_s": t_warm - t0,
            "train_s": t_train - t_warm,
            "eval_s": t_end - t_train,
            "total_s": t_end - t0,
            "oracle_s": oracle.miss_seconds,
            "train_step_s": train_step_s,
            "train_steps": train_steps,
        },
    )
    return TrainResult(theta1, theta2, opt, report, oracle)


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """Header ``columns``, then each row's values under those keys in that order."""
    with open(path, "w", newline="") as fh:
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
    result = run_training(config)
    out = _out_dir(config)
    _write_json(out / "report.json", result.report.to_dict())
    _write_json(out / "timings.json", result.report.timings)
    net.save_checkpoint(out / "checkpoint.json", result.theta1, result.optimizer)
    return result.report


def _kfold_cv(config: RunConfig, matrix: SampleMatrix, folds: int):
    """Scorer of 0-based column subsets by k-fold CV accuracy over one shared plan.

    The stratified plan depends only on the labels and the seed, so one plan
    serves every projection of the matrix.
    """
    plan = stratified_split(matrix, SplitKind.kfold(folds), sub_seed(config.seed, "split"))

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
    matrix: SampleMatrix | None = None,
) -> list[dict]:
    """Per-classifier k-fold CV accuracy of one 0-based feature subset.

    ``matrix`` is the config's loaded matrix, when the caller has it already.
    """
    if not subset:
        raise ValueError("subset must be nonempty")
    if matrix is None:
        matrix = load_matrix(config)
    sub = sorted(set(int(i) for i in subset))
    if len(sub) != len(subset):
        raise ValueError("subset contains duplicate indices")
    cv = _kfold_cv(config, matrix, folds)
    kinds = kinds or [ClassifierKind(name) for name in ("dt", "rf", "knn", "svm")]

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
    matrix: SampleMatrix | None = None,
) -> list[dict]:
    """Subset quality per (method, size): selection + k-fold CV accuracy.

    The random baseline is averaged over ``random_draws`` seeded draws and
    reported with its standard deviation. ``matrix`` is the config's loaded
    matrix, when the caller has it already.
    """
    for m in methods:
        if m not in COMPARE_METHODS:
            raise ConfigError(f"unknown method {m!r} (use {', '.join(COMPARE_METHODS)})")
    if matrix is None:
        matrix = load_matrix(config)
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
                    result = run_training(replace(config, subset_size=size), matrix=matrix)
                    subset = result.report.final_subset
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


def cmd_stability(
    config: RunConfig, runs: int, folds: int = 10, matrix: SampleMatrix | None = None
) -> dict:
    """Independent trainings; CV accuracy at every prefix length of each greedy subset.

    ``matrix`` is the config's loaded matrix, when the caller has it already.
    """
    if runs < 1:
        raise ConfigError("runs must be >= 1")
    if matrix is None:
        matrix = load_matrix(config)
    cv = _kfold_cv(config, matrix, folds)

    per_run = []
    for run in range(runs):
        run_cfg = config.with_seed(sub_seed(config.seed, f"stability-{run}"))
        result = run_training(run_cfg, matrix=matrix)
        order = result.report.selection_order
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
    the held-out 20 provides the test-side accuracy. After each training
    episode the hook of ``run_training`` runs one greedy evaluation episode
    through the run's own environment. Each episode records the
    epsilon-greedy episode's own final reward, and the accuracy of the subset
    the greedy episode selects: under the training oracle (that episode's
    last step reward) and under the test oracle (fit on the whole 80, scored
    on the 20).
    """
    if period < 1:
        raise ConfigError("period must be >= 1")
    matrix = load_matrix(config)
    outer = stratified_split(matrix, SplitKind.holdout(0.2), sub_seed(config.seed, "curves-split"))
    train_idx, test_idx = outer.train_test()
    train_part = matrix.rows(train_idx)
    test_oracle = RewardOracle.from_parts(
        config.classifier, train_part, matrix.rows(test_idx), sub_seed(config.seed, "test-oracle")
    )

    rows = []

    def per_episode(record: dict, theta1: net.NetworkParams, env: FeatureEnv):
        order, rewards = _episode(env, theta1, 0.0, rng=None)  # greedy: draws nothing
        rows.append(
            {
                "episode": record["episode"],
                "epsilon": record["epsilon"],
                "final_reward": record["final_reward"],
                "train_accuracy": rewards[-1],
                "test_accuracy": float(test_oracle(tuple(sorted(order)))),
            }
        )

    run_training(config, matrix=train_part, per_episode=per_episode)

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
    if matrix is None:
        matrix = load_matrix(config)
    kinds = kinds or [ClassifierKind(name) for name in ("dt", "rf", "svm")]
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
        for subset in subsets:
            sub = sorted(int(i) for i in subset)
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
