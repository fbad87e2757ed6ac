"""Run configuration: a single JSON file, validated up front with field
paths, plus the resolved-values dictionary that run outputs embed so every
artifact is self-describing.

Defaults follow the common study setup (alpha 0.05, nsim 1000, selection
temperature 1, mutation probability 0.05; the predictor's come from
knn.PredictorConfig); anything a config file sets explicitly wins, and
overrides (the CLI flags) win over the file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any

from .ga import GaConfig
from .grid import GridError, SearchSpace
from .io import space_from_dict, space_to_dict, FormatError
from .knn import PredictorConfig
from .oracle import OracleConfig
from .regression import TestSpec


class ConfigError(ValueError):
    """A configuration value is missing or invalid (message carries the
    field path)."""


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "runs"
    prefix: str = "run"


@dataclass(frozen=True)
class RunConfig:
    space: SearchSpace
    oracle: OracleConfig
    ga: GaConfig | None
    predictor: PredictorConfig
    master_seed: int
    oracle_seed: int | None
    worker_count: int
    output: OutputConfig

    @property
    def resolved_oracle_seed(self) -> int:
        return self.master_seed if self.oracle_seed is None else self.oracle_seed


def _section(data: dict, key: str, required: bool = True) -> dict | None:
    value = data.get(key)
    if value is None:
        if required:
            raise ConfigError(f"{key}: required section is missing")
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object, got {type(value).__name__}")
    return value


def _get(section: dict, path: str, key: str, kind, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    try:
        return kind(section[key])
    except (TypeError, ValueError):
        raise ConfigError(
            f"{path}.{key}: expected {kind.__name__}, got {section[key]!r}"
        ) from None


def _build_space(data: dict) -> SearchSpace:
    try:
        return space_from_dict(data)
    except (FormatError, GridError) as exc:
        raise ConfigError(f"search_space: {exc}") from None


def _build_test(data: dict, p: int) -> TestSpec:
    kind = _get(data, "oracle.test", "kind", str, required=True)
    raw = data.get("tested_indices")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("oracle.test.tested_indices: expected a non-empty list")
    try:
        indices = tuple(int(i) for i in raw)
        spec = TestSpec(tested_indices=indices, kind=kind)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"oracle.test: {exc}") from None
    if max(spec.tested_indices) > p:
        raise ConfigError(
            f"oracle.test.tested_indices: index {max(spec.tested_indices)} "
            f"exceeds the {p} coefficients in search_space"
        )
    return spec


def _build_oracle(data: dict, p: int) -> OracleConfig:
    test_data = data.get("test")
    if not isinstance(test_data, dict):
        raise ConfigError("oracle.test: required section is missing")
    try:
        return OracleConfig(
            nsim=_get(data, "oracle", "nsim", int, default=1000),
            alpha=_get(data, "oracle", "alpha", float, default=0.05),
            sigma2=_get(data, "oracle", "sigma2", float, default=1.0),
            test=_build_test(test_data, p),
            scheme=_get(data, "oracle", "scheme", str, default="normal"),
        )
    except ValueError as exc:
        raise ConfigError(f"oracle: {exc}") from None


def _build_ga(data: dict, master_seed: int) -> GaConfig:
    try:
        return GaConfig(
            population_size=_get(data, "ga", "population_size", int, required=True),
            iterations=_get(data, "ga", "iterations", int, required=True),
            selection_lambda=_get(data, "ga", "selection_lambda", float, default=1.0),
            mutation_prob=_get(data, "ga", "mutation_prob", float, default=0.05),
            master_seed=master_seed,
        )
    except ValueError as exc:
        raise ConfigError(f"ga: {exc}") from None


def _build_defaulted(cls, data: dict, key: str):
    """A dataclass whose fields all have defaults (their types) from the
    optional section key; the class holds the only copy of the defaults."""
    section = _section(data, key, required=False) or {}
    try:
        return cls(**{
            f.name: _get(section, key, f.name, type(f.default), default=f.default)
            for f in fields(cls)
        })
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def build_run_config(data: dict[str, Any]) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    space = _build_space(_section(data, "search_space"))
    oracle = _build_oracle(_section(data, "oracle"), space.n_coefficients)
    master_seed = _get(data, "", "master_seed", int, default=0)
    if master_seed < 0:
        raise ConfigError(f"master_seed: must be >= 0, got {master_seed}")
    oracle_seed = _get(data, "", "oracle_seed", int, default=None)
    if oracle_seed is not None and oracle_seed < 0:
        raise ConfigError(f"oracle_seed: must be >= 0, got {oracle_seed}")
    ga_data = _section(data, "ga", required=False)
    ga = _build_ga(ga_data, master_seed) if ga_data is not None else None
    predictor = _build_defaulted(PredictorConfig, data, "predictor")
    worker_count = _get(data, "", "worker_count", int, default=1)
    if worker_count < 1:
        raise ConfigError(f"worker_count: must be >= 1, got {worker_count}")
    output = _build_defaulted(OutputConfig, data, "output")
    return RunConfig(
        space=space,
        oracle=oracle,
        ga=ga,
        predictor=predictor,
        master_seed=master_seed,
        oracle_seed=oracle_seed,
        worker_count=worker_count,
        output=output,
    )


def load_run_config(path, overrides: dict[str, Any] | None = None) -> RunConfig:
    """The run configuration in a JSON file. Overrides, keyed by field path
    ("worker_count", "oracle.nsim"), win over the file's values."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    for name, value in (overrides or {}).items() if isinstance(data, dict) else ():
        section, _, field = name.rpartition(".")
        target = data.setdefault(section, {}) if section else data
        if isinstance(target, dict):  # else build_run_config names the section
            target[field] = value
    return build_run_config(data)


def resolved_config_dict(config: RunConfig) -> dict[str, Any]:
    """Every effective value, defaults included, for run metadata.

    worker_count is deliberately absent: it cannot affect results, and
    leaving it out keeps exports byte-comparable across worker counts.
    """
    out: dict[str, Any] = {
        "search_space": space_to_dict(config.space),
        "oracle": {
            "nsim": config.oracle.nsim,
            "alpha": config.oracle.alpha,
            "sigma2": config.oracle.sigma2,
            "scheme": config.oracle.scheme,
            "test": {
                "kind": config.oracle.test.kind,
                "tested_indices": list(config.oracle.test.tested_indices),
            },
        },
        "predictor": asdict(config.predictor),
        "master_seed": config.master_seed,
        "oracle_seed": config.resolved_oracle_seed,
        "output": asdict(config.output),
    }
    if config.ga is not None:
        out["ga"] = {
            "population_size": config.ga.population_size,
            "iterations": config.ga.iterations,
            "selection_lambda": config.ga.selection_lambda,
            "mutation_prob": config.ga.mutation_prob,
        }
    return out
