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


def score(
    learned: tuple[np.ndarray, np.ndarray],
    reference: tuple[np.ndarray, np.ndarray],
    space: SearchSpace,
    predictor: PredictorConfig,
    oracle_queries: int,
) -> EvaluationReport:
    """Compare a learned dictionary against a reference that holds every
    grid point once, each given as (genes, powers): genes an (m, d) array of
    grid indices.

    The learned genes must be distinct grid points in gene order, as
    io.load_dictionary_arrays and PowerDictionary.arrays give them.
    rmse_seen_only covers the learned points; rmse_full_grid covers every
    grid point, filling the others with the predictor's k-NN prediction.
    Both are taken over vectors in grid order.
    """
    size, counts = space.grid_size, space.grid_counts
    genes, powers = reference
    genes = np.asarray(genes).reshape(-1, space.dimension)
    # The entry count first, so that no array is sized by a grid the
    # entries cannot cover.
    uncovered = ValueError(
        f"brute-force dictionary has {len(genes)} entries; "
        f"expected full coverage of the {size}-point grid"
    )
    if len(genes) != size:
        raise uncovered
    on_grid = np.all((genes >= 0) & (genes < counts), axis=1)
    position = np.ravel_multi_index(genes[on_grid].T, counts)
    covered = np.zeros(size, dtype=bool)
    covered[position] = True
    if not covered.all():
        raise uncovered
    truth = np.empty(size)
    truth[position] = powers
    genes, powers = learned
    if len(powers) == 0:
        raise ValueError("learned dictionary is empty")
    position = np.ravel_multi_index(np.asarray(genes).T, counts)
    seen = np.zeros(size, dtype=bool)
    seen[position] = True
    candidate = np.empty(size)
    candidate[position] = powers
    unseen = np.flatnonzero(~seen)
    candidate[unseen] = DictionaryIndex(space, genes, powers).predict(
        space.decode_many(np.column_stack(np.unravel_index(unseen, counts))),
        predictor.k,
        predictor.metric,
    )
    return EvaluationReport(
        rmse_seen_only=rmse(truth[seen], candidate[seen]),
        rmse_full_grid=rmse(truth, candidate),
        grid_size=size,
        ga_queries=oracle_queries,
        query_ratio=oracle_queries / size,
    )


def evaluate(
    ga: GaReport,
    brute: PowerDictionary,
    space: SearchSpace,
    k: int,
) -> EvaluationReport:
    """score of a GA run's dictionary against the brute-force grid, under
    the normalized metric."""
    return score(ga.dictionary.arrays(), brute.arrays(), space, PredictorConfig(k), ga.oracle_queries)


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
