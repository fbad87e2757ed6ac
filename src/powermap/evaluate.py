"""Brute-force grid computation and the RMSE comparison against a learned
dictionary.

Brute force and the search share the per-chromosome seed derivation, so grid
points present in both agree exactly when their oracle seeds coincide; the
full-grid RMSE then isolates the k-NN interpolation error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ga import GaReport, PowerDictionary
from .grid import SearchSpace
from .knn import DictionaryIndex, PredictorConfig
from .oracle import OracleConfig, PowerOracle

DEFAULT_GRID_BUDGET = 1_000_000

SWEEP_CSV_COLUMNS = (
    "N",
    "I",
    "oracle_queries",
    "query_ratio",
    "rmse_seen",
    "rmse_full",
    "elapsed_ms",
)


class GridBudgetError(RuntimeError):
    """The requested grid exceeds the configured evaluation budget."""


@dataclass(frozen=True)
class EvaluationReport:
    rmse_seen_only: float
    rmse_full_grid: float
    grid_size: int
    ga_queries: int
    query_ratio: float


@dataclass(frozen=True)
class SweepRow:
    """One (population size, iterations) cell of a sweep, ready for CSV."""

    population_size: int
    iterations: int
    oracle_queries: int
    query_ratio: float
    rmse_seen: float
    rmse_full: float
    elapsed_ms: float


def brute_force_manifold(
    space: SearchSpace,
    config: OracleConfig,
    master_seed: int,
    *,
    worker_count: int = 1,
    grid_budget: int = DEFAULT_GRID_BUDGET,
) -> PowerDictionary:
    """One oracle value per grid point, over the whole grid."""
    size = space.grid_size
    if size > grid_budget:
        raise GridBudgetError(
            f"grid has {size} points, exceeding the budget of {grid_budget}; "
            "raise the budget explicitly to proceed"
        )
    chromosomes = list(space.enumerate_grid())
    with PowerOracle(space, config, master_seed, worker_count) as oracle:
        values = oracle.evaluate_many(chromosomes)
    dictionary = PowerDictionary()
    for c, v in zip(chromosomes, values):
        dictionary.insert(c, v)
    return dictionary


def rmse(reference, candidate) -> float:
    """Root mean squared difference between two equally long value vectors."""
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape or reference.ndim != 1:
        raise ValueError(
            f"need two equal-length vectors, got {reference.shape} and {candidate.shape}"
        )
    if reference.size == 0:
        raise ValueError("rmse needs at least one value")
    diff = reference - candidate
    return float(np.sqrt(np.mean(diff * diff)))


def evaluate(
    ga: GaReport,
    brute: PowerDictionary,
    space: SearchSpace,
    k: int,
) -> EvaluationReport:
    """Compare a learned dictionary against the brute-force grid.

    rmse_seen_only covers the keys the search actually visited;
    rmse_full_grid covers every grid point, filling unvisited ones with the
    k-NN prediction under the normalized metric.
    """
    grid = list(space.enumerate_grid())
    size = space.grid_size
    if len(brute) != size or any(c not in brute for c in grid):
        raise ValueError(
            f"brute-force dictionary has {len(brute)} entries; "
            f"expected full coverage of the {size}-point grid"
        )
    learned = ga.dictionary
    if len(learned) == 0:
        raise ValueError("learned dictionary is empty")

    seen = [c for c in grid if c in learned]
    rmse_seen = rmse([brute[c] for c in seen], [learned[c] for c in seen])

    predicted = iter(DictionaryIndex(learned, space).predict(
        space.decode_many([c.genes for c in grid if c not in learned]), k, PredictorConfig.metric
    ))
    candidate = [learned[c] if c in learned else next(predicted) for c in grid]
    return EvaluationReport(
        rmse_seen_only=rmse_seen,
        rmse_full_grid=rmse([brute[c] for c in grid], candidate),
        grid_size=size,
        ga_queries=ga.oracle_queries,
        query_ratio=ga.oracle_queries / size,
    )


def write_sweep_csv(path, rows: Iterable[SweepRow]) -> None:
    """Sweep results, one line per (N, I) cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.population_size,
                    row.iterations,
                    row.oracle_queries,
                    f"{row.query_ratio:.6f}",
                    f"{row.rmse_seen:.6f}",
                    f"{row.rmse_full:.6f}",
                    f"{row.elapsed_ms:.1f}",
                ]
            )
