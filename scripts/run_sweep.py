#!/usr/bin/env python3
"""Sweep population size and iteration count against a brute-forced grid.

For every (N, I) cell the search runs once per exploration seed, always
sharing the brute-force oracle seed, and the mean query ratio and RMSE land
in one CSV row — the data behind run-time/accuracy trade-off plots.

Example:
    python scripts/run_sweep.py -c configs/desk.json \
        --populations 100 400 --iterations 10 50 \
        --seeds 101 102 103 104 105 --out sweep.csv
"""

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from powermap import GaConfig, brute_force_manifold, run, score
from powermap.config import load_run_config
from powermap.evaluate import SweepRow, write_sweep_csv


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-c", "--config", required=True, help="run configuration JSON")
    parser.add_argument("--populations", type=int, nargs="+", required=True)
    parser.add_argument("--iterations", type=int, nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103, 104, 105])
    parser.add_argument("--out", default="sweep.csv")
    parser.add_argument("--workers", type=int, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = {} if args.workers is None else {"worker_count": args.workers}
    config = load_run_config(args.config, overrides)
    workers = config.worker_count
    space, oracle = config.space, config.oracle
    oracle_seed = config.resolved_oracle_seed

    print(
        f"brute-forcing the {space.grid_size}-point grid "
        f"(nsim={oracle.nsim}, workers={workers})...",
        file=sys.stderr,
    )
    started = time.perf_counter()
    brute = brute_force_manifold(space, oracle, oracle_seed, worker_count=workers)
    print(f"  done in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    reference = brute.arrays()

    rows = []
    for population_size in args.populations:
        for iterations in args.iterations:
            cell, cell_started = [], time.perf_counter()
            for seed in args.seeds:
                settings = dict(population_size=population_size, iterations=iterations, master_seed=seed)
                ga = replace(config.ga, **settings) if config.ga else GaConfig(**settings)
                report = run(space, oracle, ga, oracle_seed=oracle_seed, worker_count=workers)
                cell.append(
                    score(report.dictionary.arrays(), reference, space, config.predictor, report.oracle_queries)
                )
            elapsed_ms = (time.perf_counter() - cell_started) * 1000 / len(args.seeds)
            rows.append(
                SweepRow(
                    population_size=population_size,
                    iterations=iterations,
                    oracle_queries=round(np.mean([r.ga_queries for r in cell])),
                    query_ratio=float(np.mean([r.query_ratio for r in cell])),
                    rmse_seen=float(np.mean([r.rmse_seen_only for r in cell])),
                    rmse_full=float(np.mean([r.rmse_full_grid for r in cell])),
                    elapsed_ms=elapsed_ms,
                )
            )
            print(
                f"N={population_size} I={iterations}: "
                f"ratio {rows[-1].query_ratio:.3f}, rmse_full {rows[-1].rmse_full:.4f}",
                file=sys.stderr,
            )
    write_sweep_csv(args.out, rows)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
