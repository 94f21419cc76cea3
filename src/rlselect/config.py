"""The run-config schema: ``RunConfig``, read strictly from JSON (a bad field raises
``ConfigError`` naming its dotted path, before any data is loaded), and the matrix a config names."""

from __future__ import annotations

import json
from dataclasses import MISSING, Field, dataclass, fields, is_dataclass, replace
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from . import dataset
from .agent import AgentConfig, ReplayMemory
from .classifiers import ClassifierKind
from .dataset import SampleMatrix, SplitKind, SyntheticSpec
from .net import NetworkConfig, OptimizerState

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


def _with_config_path(prefix: str, build):
    """``build()``, with a ``ValueError`` it raises made a ``ConfigError`` led by the config path ``prefix``."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _count(name: str, value, minimum: int) -> None:
    """Refuse ``value`` as a ``ConfigError`` led by ``name:`` unless it is an ``is_index`` integer >= ``minimum``."""
    if not (dataset.is_index(value) and value >= minimum):
        raise ConfigError(f"{name}: must be an integer >= {minimum}, got {value!r}")


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
        # the oracle scores the rows its fit part leaves, so SplitKind owns the range rule
        _with_config_path(
            f"oracle_fit_fraction: {self.oracle_fit_fraction!r} leaves a score part whose ",
            lambda: SplitKind.holdout(1.0 - self.oracle_fit_fraction),
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
            _with_config_path(prefix, build)
        if self.replay_capacity < self.batch_size:  # no batch could ever be sampled, so nothing would train
            raise ConfigError(
                f"replay_capacity must be >= agent.batch_size {self.batch_size}, got {self.replay_capacity}"
            )

    def agent_config(self) -> AgentConfig:
        return AgentConfig(**{f.name: getattr(self, f.name) for f in fields(AgentConfig)})

    def network_config(self, n_features: int) -> NetworkConfig:
        return NetworkConfig.for_features(
            n_features, self.embed_dim, self.hidden_dim, self.cell, self.head
        )

    def optimizer_state(self) -> OptimizerState:
        total = self.total_steps
        if total is None:
            # Train steps per run, doubled so the rate only halves by the end.
            agent = self.agent_config()
            total = max(1, 2 * sum(map(agent.train_steps_due, range(1, self.total_episodes + 1))))
        return OptimizerState(total_steps=total, base_rate=self.base_rate, clip_norm=self.clip_norm)

    def paper_scale(self) -> "RunConfig":
        return replace(self, **PAPER_SCALE)

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
            with open(path, encoding="utf-8-sig") as fh:
                return cls.from_dict(json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8: {exc}") from exc


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
        return dataset.load_csv(config.csv_path)  # through the module, so a tracer that rebinds it sees the call
    return dataset.generate_synthetic(config.synthetic)
