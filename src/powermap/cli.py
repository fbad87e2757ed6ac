"""Command-line surface: learn, brute-force, predict, evaluate.

Data goes to files (or JSON on stdout for evaluate); progress and notices go
to stderr. Exit codes: 0 success, 2 validation, 3 runtime/numerical, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

from . import ga as ga_mod
from . import io as io_mod
from .evaluate import DEFAULT_GRID_BUDGET, brute_force_manifold, score
from .config import RunConfig, load_run_config, resolved_config_dict
from .knn import METRICS, DictionaryIndex, PredictorConfig
from .oracle import OracleError
from .special import NumericalError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _warn_dropped_remainders(config: RunConfig) -> None:
    for name, r in zip(io_mod.dictionary_csv_header(config.space), config.space.ranges):
        top = r.top_value
        if top < r.upper - 1e-12 * max(1.0, abs(r.upper)):
            _note(
                f"note: {name} grid tops out at {top:g} "
                f"(upper bound {r.upper:g} is not reachable with step {r.step:g})"
            )


# Flag name -> the config field it overrides.
_OVERRIDES = {
    "master_seed": "master_seed", "oracle_seed": "oracle_seed", "workers": "worker_count",
    "nsim": "oracle.nsim", "alpha": "oracle.alpha",
    "population_size": "ga.population_size", "iterations": "ga.iterations",
    "k": "predictor.k", "metric": "predictor.metric",
    "out_dir": "output.directory", "prefix": "output.prefix",
}


def _overrides(args: argparse.Namespace) -> dict:
    """The config fields that flags set; they win over the -c file."""
    flags = {field: getattr(args, attr, None) for attr, field in _OVERRIDES.items()}
    return {field: value for field, value in flags.items() if value is not None}


def _predictor(args: argparse.Namespace) -> PredictorConfig:
    """k and metric from the flags, then the -c config, then the defaults.
    predict and evaluate have no override flags outside predictor.*."""
    if args.config is not None:
        return load_run_config(args.config, _overrides(args)).predictor
    return PredictorConfig(**{f.split(".")[1]: v for f, v in _overrides(args).items()})


def _out_paths(config: RunConfig) -> tuple[Path, Path, Path]:
    directory = Path(config.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = ("dictionary.csv", "dictionary.json", "report.json")
    return tuple(directory / f"{config.output.prefix}_{name}" for name in names)


def _export_run(
    config: RunConfig,
    command: str,
    dictionary: ga_mod.PowerDictionary,
    report: ga_mod.GaReport | None = None,
) -> None:
    """Writes the dictionary's CSV and JSON exports, and with a GA report,
    the report JSON. Brute force queries the oracle once per entry."""
    metadata = {
        "command": command,
        "oracle_queries": len(dictionary) if report is None else report.oracle_queries,
        "config": resolved_config_dict(config),
    }
    csv_path, json_path, report_path = _out_paths(config)
    io_mod.export_dictionary_csv(csv_path, dictionary, config.space)
    io_mod.export_dictionary_json(json_path, dictionary, config.space, metadata)
    _note(f"wrote {csv_path} and {json_path} ({len(dictionary)} entries)")
    if report is not None:
        payload = {
            "oracle_queries": report.oracle_queries,
            "elapsed_seconds": report.elapsed_seconds,
            "worker_count": config.worker_count,
            "per_iteration": [dataclasses.asdict(s) for s in report.per_iteration],
            "config": metadata["config"],
        }
        with open(report_path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        _note(f"wrote {report_path}")


def cmd_learn(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, _overrides(args))
    if config.ga is None:
        raise io_mod.FormatError("ga: required section is missing for the learn command")
    _warn_dropped_remainders(config)
    report = ga_mod.run(
        config.space,
        config.oracle,
        config.ga,
        oracle_seed=config.resolved_oracle_seed,
        worker_count=config.worker_count,
    )
    _export_run(config, "learn", report.dictionary, report)
    _note(
        f"oracle queries: {report.oracle_queries} "
        f"(grid size {config.space.grid_size}), "
        f"elapsed: {report.elapsed_seconds:.2f} s"
    )
    return EXIT_OK


def cmd_brute_force(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, _overrides(args))
    _warn_dropped_remainders(config)
    started = time.perf_counter()
    dictionary = brute_force_manifold(
        config.space,
        config.oracle,
        config.resolved_oracle_seed,
        worker_count=config.worker_count,
        grid_budget=args.grid_budget,
    )
    elapsed = time.perf_counter() - started
    _export_run(config, "brute-force", dictionary)
    _note(f"oracle queries: {len(dictionary)}, elapsed: {elapsed:.2f} s")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    k, metric = dataclasses.astuple(_predictor(args))
    space, genes, powers, _ = io_mod.load_dictionary_arrays(args.dictionary)
    _, points = io_mod.load_queries_csv(args.queries, space)
    predictions = DictionaryIndex(space, genes, powers).predict(points, k, metric)
    io_mod.write_predictions_csv(args.out, space, points, predictions)
    _note(f"wrote {args.out} ({len(points)} predictions, k={k}, metric={metric})")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictor = _predictor(args)
    space, genes, powers, metadata = io_mod.load_dictionary_arrays(args.ga)
    brute_space, brute_genes, brute_powers, _ = io_mod.load_dictionary_arrays(args.brute)
    if space != brute_space:
        raise io_mod.FormatError(
            "search spaces of the two exports differ; "
            "the comparison requires a shared grid"
        )
    queries = io_mod.field(metadata, f"{args.ga}: metadata", "oracle_queries", int, len(powers))
    if queries < len(powers):  # each entry is one oracle value
        raise io_mod.FormatError(
            f"{args.ga}: metadata.oracle_queries: {queries} is fewer than the export's {len(powers)} entries"
        )
    result = score((genes, powers), (brute_genes, brute_powers), space, predictor, queries)
    payload = dataclasses.asdict(result)
    text = json.dumps(payload, indent=1)
    print(text)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _note(f"wrote {args.out}")
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="run configuration JSON")
    parser.add_argument("--master-seed", dest="master_seed", type=int)
    parser.add_argument("--oracle-seed", dest="oracle_seed", type=int)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--nsim", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--prefix")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged (no append actions, no mutable defaults), so every main call
    reuses it."""
    parser = argparse.ArgumentParser(
        prog="powermap",
        description="Learn a statistical power surface with a genetic "
        "search over a parameter grid, then predict unseen points by "
        "k-nearest neighbors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="run the genetic search and export the dictionary")
    _add_config_flags(p_learn)
    p_learn.add_argument("--population-size", dest="population_size", type=int)
    p_learn.add_argument("--iterations", type=int)
    p_learn.set_defaults(func=cmd_learn)

    p_brute = sub.add_parser("brute-force", help="evaluate every grid point")
    _add_config_flags(p_brute)
    p_brute.add_argument(
        "--grid-budget",
        dest="grid_budget",
        type=int,
        default=DEFAULT_GRID_BUDGET,
        help="refuse grids larger than this many points",
    )
    p_brute.set_defaults(func=cmd_brute_force)

    p_pred = sub.add_parser("predict", help="k-NN predictions for a CSV of query points")
    p_pred.add_argument("-c", "--config", help="optional run configuration JSON")
    p_pred.add_argument("--dictionary", required=True, help="dictionary JSON export")
    p_pred.add_argument("--queries", required=True, help="CSV of query points")
    p_pred.add_argument("--out", required=True, help="output CSV path")
    p_pred.add_argument("--k", type=int)
    p_pred.add_argument("--metric", choices=METRICS)
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser(
        "evaluate", help="RMSE of a learned dictionary against a brute-force export"
    )
    p_eval.add_argument("-c", "--config", help="optional run configuration JSON")
    p_eval.add_argument("--ga", required=True, help="learned dictionary JSON export")
    p_eval.add_argument("--brute", required=True, help="brute-force dictionary JSON export")
    p_eval.add_argument("--out", help="also write the report JSON here")
    p_eval.add_argument("--k", type=int)
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input, an over-budget grid included
        _note(f"error: {exc}")
        return EXIT_VALIDATION
    except (OracleError, NumericalError) as exc:
        _note(f"error: {exc}")
        return EXIT_RUNTIME
    except OSError as exc:
        _note(f"error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
