"""Run configuration: a single JSON file, read strictly through io's field
reader (errors name the field path), plus the resolved-values dictionary
that run outputs embed so every artifact is self-describing.

Each section is read through its dataclass, whose field defaults are the
only copy of that section's defaults, with one exception: the oracle's nsim,
alpha and sigma2 defaults live in _ORACLE_DEFAULTS. Anything a config file
sets explicitly wins, and overrides (the CLI flags) win over the file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from .ga import GaConfig
from .grid import SearchSpace
from .io import FormatError, expect, field, read, read_json, space_from_dict, space_to_dict
from .knn import PredictorConfig
from .oracle import OracleConfig, check_fit
from .regression import TestSpec

# Not OracleConfig field defaults: they come before its required test field,
# which callers pass positionally ahead of scheme.
_ORACLE_DEFAULTS = {"nsim": 1000, "alpha": 0.05, "sigma2": 1.0}


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


def build_run_config(data: dict[str, Any]) -> RunConfig:
    expect(data, "top level", dict)
    space = space_from_dict(field(data, "", "search_space", dict))
    oracle = field(data, "", "oracle", dict)
    oracle = read(
        OracleConfig, {**_ORACLE_DEFAULTS, **oracle}, "oracle",
        test=read(TestSpec, field(oracle, "oracle", "test", dict), "oracle.test"),
    )
    p = space.n_coefficients
    try:
        check_fit(p, oracle)
    except ValueError as exc:
        raise FormatError(f"oracle.{exc}") from None
    # Checked here, not in SearchSpace: a dictionary export of such a space
    # still loads for predict, which fits nothing.
    if space.sample_size_range.lower < p + 2:
        raise FormatError(
            f"search_space.sample_size.lower: sample size {space.sample_size_range.lower:g} "
            f"cannot fit {p} slopes plus intercept (needs >= {p + 2})"
        )
    master_seed = field(data, "", "master_seed", int, 0)
    oracle_seed = field(data, "", "oracle_seed", int, None)
    worker_count = field(data, "", "worker_count", int, 1)
    for name, value, least in (
        ("master_seed", master_seed, 0), ("oracle_seed", oracle_seed, 0), ("worker_count", worker_count, 1)
    ):
        if value is not None and value < least:
            raise FormatError(f"{name}: must be >= {least}, got {value}")
    ga = field(data, "", "ga", dict, None)
    return RunConfig(
        space=space,
        oracle=oracle,
        ga=None if ga is None else read(GaConfig, ga, "ga", master_seed=master_seed),
        predictor=read(PredictorConfig, field(data, "", "predictor", dict, {}), "predictor"),
        master_seed=master_seed,
        oracle_seed=oracle_seed,
        worker_count=worker_count,
        output=read(OutputConfig, field(data, "", "output", dict, {}), "output"),
    )


def load_run_config(path, overrides: dict[str, Any] | None = None) -> RunConfig:
    """The run configuration in a JSON file. Overrides, keyed by field path
    ("worker_count", "oracle.nsim"), win over the file's values."""
    data = read_json(path)
    for name, value in (overrides or {}).items() if isinstance(data, dict) else ():
        section_name, _, key = name.rpartition(".")
        target = data.setdefault(section_name, {}) if section_name else data
        if isinstance(target, dict):  # else build_run_config names the section
            target[key] = value
    return build_run_config(data)


def resolved_config_dict(config: RunConfig) -> dict[str, Any]:
    """Every effective value, defaults included, for run metadata.

    worker_count is deliberately absent: it cannot affect results, and
    leaving it out keeps exports byte-comparable across worker counts.
    """
    oracle = asdict(config.oracle)
    test = oracle.pop("test")  # exports list it last, kind first
    oracle["test"] = {"kind": test["kind"], "tested_indices": list(test["tested_indices"])}
    out: dict[str, Any] = {
        "search_space": space_to_dict(config.space),
        "oracle": oracle,
        "predictor": asdict(config.predictor),
        "master_seed": config.master_seed,
        "oracle_seed": config.resolved_oracle_seed,
        "output": asdict(config.output),
    }
    if config.ga is not None:
        out["ga"] = asdict(config.ga)
        del out["ga"]["master_seed"]  # the top-level master_seed
    return out
