"""k-nearest-neighbor power prediction from a learned dictionary.

Queries are real-valued points (theta_1..theta_p, n). The default metric
rescales every dimension by its range span before the Euclidean norm;
otherwise the sample-size axis, hundreds of times wider than the coefficient
axes, would dominate every distance. The raw metric is available for
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ga import PowerDictionary
from .grid import Chromosome, SearchSpace

METRICS = ("normalized_euclidean", "raw_euclidean")

# Distances closer than this count as equal. Rounding moves a lattice
# distance by ~1e-13 at most, while distinct lattice distances on the shipped
# grids differ by at least 2.7e-6 under either metric.
_TIE_TOL = 1e-9


class QueryError(ValueError):
    """A neighbor query cannot be answered from the given dictionary."""


@dataclass(frozen=True)
class NeighborQuery:
    point: tuple[float, ...]
    k: int
    metric: str = "normalized_euclidean"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if self.metric not in METRICS:
            raise QueryError(f"unknown metric {self.metric!r}")


@dataclass(frozen=True)
class Neighbor:
    chromosome: Chromosome
    power: float
    distance: float


def _scales(space: SearchSpace, metric: str) -> np.ndarray:
    if metric == "raw_euclidean":
        return np.ones(space.dimension)
    spans = np.array([r.upper - r.lower for r in space.ranges])
    # A zero-span (single-point) dimension carries no information; it
    # contributes nothing to any distance.
    scales = np.zeros_like(spans)
    scales[spans > 0] = 1.0 / spans[spans > 0]
    return scales


class DictionaryIndex:
    """Decoded dictionary entries as arrays, for repeated queries."""

    def __init__(self, dictionary: PowerDictionary, space: SearchSpace) -> None:
        if len(dictionary) == 0:
            raise QueryError("dictionary is empty")
        entries = dictionary.sorted_items()
        self.space = space
        self.chromosomes = [c for c, _ in entries]
        self.genes = np.array([c.genes for c, _ in entries])
        self.powers = np.array([v for _, v in entries])
        lowers = np.array([r.lower for r in space.ranges])
        steps = np.array([r.step for r in space.ranges])
        self.points = lowers + self.genes * steps

    def __len__(self) -> int:
        return len(self.chromosomes)

    def nearest(self, query: NeighborQuery) -> list[Neighbor]:
        if query.k > len(self):
            raise QueryError(
                f"k = {query.k} exceeds the {len(self)} stored entries"
            )
        point = np.asarray(query.point, dtype=float)
        if point.shape != (self.space.dimension,):
            raise QueryError(
                f"query point has shape {point.shape}, "
                f"expected ({self.space.dimension},)"
            )
        scales = _scales(self.space, query.metric)
        deltas = (self.points - point) * scales
        distances = np.sqrt((deltas * deltas).sum(axis=1))
        # Only entries within _TIE_TOL of the k-th smallest distance can be
        # among the k nearest. Ranked by distance, each one within _TIE_TOL
        # of the one before it is tied with it; rows are in gene order
        # (sorted_items), so the row index breaks ties.
        kth = np.partition(distances, query.k - 1)[query.k - 1]
        near = np.flatnonzero(distances <= kth + _TIE_TOL)
        ascending = near[np.argsort(distances[near], kind="stable")]
        tie_rank = np.concatenate(([0], np.cumsum(np.diff(distances[ascending]) > _TIE_TOL)))
        top = ascending[np.lexsort((ascending, tie_rank))][: query.k]
        return [
            Neighbor(self.chromosomes[i], float(self.powers[i]), float(distances[i]))
            for i in top
        ]


def k_nearest(
    dictionary: PowerDictionary, space: SearchSpace, query: NeighborQuery
) -> list[Neighbor]:
    """The k stored entries closest to the query point, ascending by
    distance, ties broken by gene order."""
    return DictionaryIndex(dictionary, space).nearest(query)


def predict_power(
    dictionary: PowerDictionary, space: SearchSpace, query: NeighborQuery
) -> float:
    """Unweighted mean power of the k nearest stored entries."""
    neighbors = k_nearest(dictionary, space, query)
    return float(np.mean([nb.power for nb in neighbors]))
