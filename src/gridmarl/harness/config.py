"""Run configuration: one YAML file with four blocks, plus CLI overrides.

A run is fully described by ``scenario`` (what world to build), ``trainer``
(which algorithm and its hyperparameters), ``network`` (architecture sizes)
and ``run`` (seed, batch count, output directory, cadence, timing).
Unknown blocks or keys are rejected so a typo cannot silently fall back to
a default. ``--set block.key=value`` overrides beat file values, and the
GRIDMARL_OUT environment variable beats both for the output directory.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import yaml

from ..errors import ConfigError
from ..gridworld import Scenario, ScenarioConfig, validate_scenario
from ..rl.trainer import NetConfig, TrainerConfig

OUT_DIR_ENV = "GRIDMARL_OUT"

_SCENARIO_KEYS = {
    "type", "width", "height", "agents", "foods", "landmarks",
    "adversaries", "walls", "episode_limit",
}
_BLOCKS = ("scenario", "trainer", "network", "run")


@dataclass(frozen=True)
class RunBlock:
    """Everything about a run that is not the model or the world."""

    seed: int = 0
    batches: int = 10
    out_dir: str = "runs/latest"
    metrics_every: int = 1   # also the periodic-checkpoint cadence
    timing: bool = True      # False writes 0.0 seconds for byte-stable CSVs

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"run.seed must be non-negative, got {self.seed}")
        if self.batches < 0:
            raise ConfigError("run.batches must be non-negative")
        if self.metrics_every < 1:
            raise ConfigError("run.metrics_every must be at least 1")
        if not self.out_dir:
            raise ConfigError("run.out_dir must be a non-empty path")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    trainer: TrainerConfig
    network: NetConfig
    run: RunBlock

    def validate(self) -> None:
        validate_scenario(self.scenario)
        self.trainer.validate()
        self.network.validate()
        self.run.validate()


def _check_keys(block: str, data: Mapping[str, Any], allowed: set[str]) -> None:
    extra = set(data) - allowed
    if extra:
        raise ConfigError(
            f"unknown key(s) in {block} block: {', '.join(sorted(map(str, extra)))}"
        )


def _coerce(block: str, key: str, value: Any, kind: type) -> Any:
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{block}.{key} must be true or false, got {value!r}")
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{block}.{key} must be an integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{block}.{key} must be a number, got {value!r}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{block}.{key} must be a string, got {value!r}")
        return value
    raise AssertionError(kind)


def _scenario_from(data: Mapping[str, Any]) -> ScenarioConfig:
    _check_keys("scenario", data, _SCENARIO_KEYS)
    if "type" not in data:
        raise ConfigError("scenario.type is required (jungle, battle, or deception)")
    name = _coerce("scenario", "type", data["type"], str).lower()
    try:
        kind = Scenario(name)
    except ValueError:
        raise ConfigError(
            f"unknown scenario type {name!r}; pick jungle, battle, or deception"
        ) from None
    fields: dict[str, Any] = {"scenario": kind}
    for key in ("width", "height", "agents", "foods", "landmarks", "adversaries", "walls"):
        if key in data:
            fields[key] = _coerce("scenario", key, data[key], int)
    if "episode_limit" in data and data["episode_limit"] is not None:
        fields["episode_limit"] = _coerce("scenario", "episode_limit", data["episode_limit"], int)
    missing = {"width", "height", "agents"} - set(fields)
    if missing:
        raise ConfigError(f"scenario block is missing: {', '.join(sorted(missing))}")
    return ScenarioConfig(**fields)


def _dataclass_from(block: str, data: Mapping[str, Any], cls: type) -> Any:
    """The block's keys are the dataclass's fields, each with a typed default."""
    known = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    _check_keys(block, data, set(known))
    return cls(**{k: _coerce(block, k, data[k], kind) for k, kind in known.items() if k in data})


def config_from_dict(raw: Mapping[str, Any]) -> RunConfig:
    """Build and validate a RunConfig from a parsed four-block mapping."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be a mapping of blocks")
    _check_keys("top-level", raw, set(_BLOCKS))
    if "scenario" not in raw:
        raise ConfigError("config must contain a scenario block")
    for name in _BLOCKS:
        if name in raw and not isinstance(raw[name], Mapping):
            raise ConfigError(f"{name} block must be a mapping")
    cfg = RunConfig(
        scenario=_scenario_from(raw["scenario"]),
        trainer=_dataclass_from("trainer", raw.get("trainer", {}), TrainerConfig),
        network=_dataclass_from("network", raw.get("network", {}), NetConfig),
        run=_dataclass_from("run", raw.get("run", {}), RunBlock),
    )
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, out_dir=env_out))
    cfg.validate()
    return cfg


def apply_overrides(raw: dict[str, Any], sets: Iterable[str]) -> dict[str, Any]:
    """Fold ``block.key=value`` strings into the raw mapping (values as YAML)."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form block.key=value")
        where, _, value = item.partition("=")
        if "." not in where:
            raise ConfigError(f"override {item!r} is not of the form block.key=value")
        block, _, key = where.partition(".")
        if block not in _BLOCKS:
            raise ConfigError(f"override names unknown block {block!r}")
        try:
            parsed = yaml.safe_load(value)
        except yaml.YAMLError as e:
            raise ConfigError(f"override value {value!r} does not parse: {e}") from None
        raw.setdefault(block, {})[key] = parsed
    return raw


def parse_config(text: str, sets: Iterable[str] = ()) -> RunConfig:
    """Parse YAML config text plus overrides into a validated RunConfig."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"config does not parse as YAML: {e}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping of blocks")
    return config_from_dict(apply_overrides(raw, sets))


def load_run_config(path: str, sets: Iterable[str] = ()) -> RunConfig:
    """Read, override, and validate the config file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config(text, sets)
