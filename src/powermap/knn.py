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

# Query points are ranked in blocks of about this many bytes of distances.
_CHUNK_BYTES = 128 * 1024


class QueryError(ValueError):
    """A neighbor query cannot be answered from the given dictionary."""


def _check(k: int, metric: str) -> None:
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if metric not in METRICS:
        raise QueryError(f"metric must be one of {METRICS}, got {metric!r}")


@dataclass(frozen=True)
class PredictorConfig:
    """How unseen points are predicted: the mean of the k nearest entries
    under metric. The one home of the predictor defaults."""

    k: int = 5
    metric: str = "normalized_euclidean"

    def __post_init__(self) -> None:
        _check(self.k, self.metric)


@dataclass(frozen=True)
class NeighborQuery:
    point: tuple[float, ...]
    k: int
    metric: str = PredictorConfig.metric

    def __post_init__(self) -> None:
        _check(self.k, self.metric)


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
    return np.divide(1.0, spans, out=np.zeros_like(spans), where=spans > 0)


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
        self.columns = np.ascontiguousarray(space.decode_many(self.genes).T)

    def __len__(self) -> int:
        return len(self.chromosomes)

    def _rank(self, points: np.ndarray, k: int, metric: str) -> tuple[np.ndarray, np.ndarray]:
        """Rows and distances, both (m, k), of the k nearest entries to each
        of the (m, d) points, nearest first. Distances within _TIE_TOL are
        ties, won by the lower row: rows are in gene order (sorted_items)."""
        if k > len(self):
            raise QueryError(f"k = {k} exceeds the {len(self)} stored entries")
        dimension = self.space.dimension
        if points.ndim != 2 or points.shape[1] != dimension:
            raise QueryError(
                f"query points have shape {points.shape}, expected (m, {dimension})"
            )
        if not np.isfinite(points).all():
            raise QueryError("query points must be finite")
        scales = _scales(self.space, metric)
        rows = np.empty((len(points), k), dtype=np.intp)
        distances = np.empty((len(points), k))
        step = max(1, _CHUNK_BYTES // (8 * len(self)))
        for start in range(0, len(points), step):
            block = points[start : start + step]
            # Summed one dimension at a time, in order: the same rounding as
            # a row sum over the dimensions, without an (m, n, d) array.
            squares = np.zeros((len(block), len(self)))
            for j in range(dimension):
                delta = self.columns[j] - block[:, j, None]
                delta *= scales[j]
                delta *= delta
                squares += delta
            dist = np.sqrt(squares, out=squares)
            # Only entries within _TIE_TOL of the k-th smallest distance can
            # be among the k nearest. Every row takes as many entries as the
            # widest row needs; its extra ones are moved out of any tie.
            order = np.argpartition(dist, k - 1, axis=1)
            r = np.arange(len(block))[:, None]
            bound = dist[r, order[:, k - 1 : k]] + _TIE_TOL
            width = int((dist <= bound).sum(axis=1).max())
            if width > k:
                order = np.argpartition(dist, width - 1, axis=1)
            near = order[:, :width]
            near_dist = np.where(dist[r, near] > bound, bound + 1.0, dist[r, near])
            # Ascending by distance, then row: each entry within _TIE_TOL of
            # the one before it is tied with it, and ties go to the lower row.
            ascending = np.lexsort((near, near_dist), axis=1)
            near, near_dist = near[r, ascending], near_dist[r, ascending]
            gaps = np.diff(near_dist, axis=1, prepend=near_dist[:, :1]) > _TIE_TOL
            top = np.argsort(np.cumsum(gaps, axis=1) * len(self) + near, axis=1)[:, :k]
            rows[start : start + step] = near[r, top]
            distances[start : start + step] = near_dist[r, top]
        return rows, distances

    def nearest(self, query: NeighborQuery) -> list[Neighbor]:
        point = np.asarray(query.point, dtype=float).reshape(1, -1)
        (rows,), (distances,) = self._rank(point, query.k, query.metric)
        return [
            Neighbor(self.chromosomes[i], float(self.powers[i]), float(d))
            for i, d in zip(rows, distances)
        ]

    def predict(self, points, k: int, metric: str) -> np.ndarray:
        """Unweighted mean power of the k nearest entries to each query
        point (the rows of an (m, d) array-like), one value per point."""
        _check(k, metric)
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            points = points.reshape(0, self.space.dimension)
        rows, _ = self._rank(points, k, metric)
        return self.powers[rows].mean(axis=1)


def k_nearest(
    dictionary: PowerDictionary, space: SearchSpace, query: NeighborQuery
) -> list[Neighbor]:
    """The k stored entries closest to the query point, ascending by
    distance, ties broken by gene order."""
    return DictionaryIndex(dictionary, space).nearest(query)

