"""k-nearest-neighbor power prediction from a learned dictionary.

Queries are real-valued points (theta_1..theta_p, n). The default metric
rescales every dimension by its range span before the Euclidean norm;
otherwise the sample-size axis, hundreds of times wider than the coefficient
axes, would dominate every distance. The raw metric is available for
comparison.

Ranking is exact, and reads only a few candidate entries per query. The
entries fall into groups that share every coordinate but one, on the free
axis: the finest in distance units (on the shipped grids, the sample size
under the normalized metric and a coefficient under the raw one). A group's
bound is the distance over its shared coordinates, summed in the same order
as a full distance with the free axis's term left out. Adding a term >= 0
never lowers a float sum and sqrt is monotone, so the bound is at most the
float distance of each entry of the group, bit for bit.

The bounds are built from the lattice of the kept axes: each kept axis holds
few distinct group coordinates, so each axis's term ((value - x) * scale)**2
is computed once per distinct value and query, then gathered by group and
summed in axis order. Those are the same float operations on the same
operands as a distance over the groups' coordinates, so the bounds equal it
bit for bit, however sparsely the groups fill the lattice.

Per query, cut is the k-th smallest bound (the largest, when there are fewer
than k groups). The groups within cut, at least k of them, hold at least k
entries, so the k-th smallest distance U over their entries is at least d_k,
the true k-th smallest. Every entry within d_k + _TIE_TOL therefore lies in
a group within cut or in one whose bound is within U + _TIE_TOL. Each of
those groups' entries is measured once, and ranking the ones within
U + _TIE_TOL by the tie rule gives the rows and distances of a full scan,
ties included.
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

# Query points are ranked in blocks of about this many bytes of group bounds
# and near-group distances.
_CHUNK_BYTES = 256 * 1024


class QueryError(ValueError):
    """A neighbor query cannot be answered from the given dictionary."""


def _check(k: int, metric: str) -> None:
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if metric not in METRICS:
        raise QueryError(f"metric must be one of {METRICS}, got {metric!r:.80}")


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


def _distances(columns: np.ndarray, coordinates: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """sqrt(sum_j ((columns[j] - coordinates[j]) * scales[j])**2), summed one
    dimension at a time in order, broadcast over the trailing axes."""
    squares = np.zeros(np.broadcast_shapes(columns.shape[1:], coordinates.shape[1:]))
    for column, coordinate, scale in zip(columns, coordinates, scales):
        delta = column - coordinate
        delta *= scale
        delta *= delta
        squares += delta
    return np.sqrt(squares, out=squares)


def _firsts(query: np.ndarray, m: int) -> np.ndarray:
    """Where each of queries 0..m-1 starts in the ascending array query."""
    counts = np.bincount(query, minlength=m)
    return np.cumsum(counts) - counts


def _pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero of a 2-D mask, from its flat indices, which numpy finds
    several times faster."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _kth(query: np.ndarray, values: np.ndarray, m: int, k: int) -> np.ndarray:
    """The k-th smallest of the values of each of queries 0..m-1, where the
    ascending array query names each value's query (each has at least k)."""
    column = np.arange(len(query)) - _firsts(query, m)[query]
    each = np.full((m, column.max() + 1), np.inf)
    each[query, column] = values
    return np.partition(each, k - 1, axis=1)[:, k - 1]


class _Groups:
    """The entries in runs that share every coordinate but the free axis's,
    each run (group) given by its start and size in the row order `order`.
    Along each kept axis, the groups' coordinates are values[i][inverse[i]]."""

    def __init__(self, genes: np.ndarray, columns: np.ndarray, free: int) -> None:
        self.kept = [j for j in range(genes.shape[1]) if j != free]
        # Sorted by the kept genes, then the free one: gene order when the
        # free axis is the last.
        self.order = np.lexsort(genes[:, [free] + self.kept[::-1]].T)
        kept = columns[self.kept][:, self.order]
        self.starts = np.flatnonzero(np.r_[True, np.any(kept[:, 1:] != kept[:, :-1], axis=0)])
        self.sizes = np.diff(self.starts, append=len(genes))
        self.columns = kept[:, self.starts]
        self.values, self.inverse = zip(*(np.unique(c, return_inverse=True) for c in self.columns))

    def query_bytes(self, k: int) -> int:
        """The bytes of one query's bounds and of k groups' distances."""
        return 8 * (len(self.starts) + min(k, len(self.starts)) * int(self.sizes.max()))

    def bounds(self, block: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """_distances(columns, block.T[kept, :, None], scales[kept]), the
        (queries, groups) bounds, from each kept axis's terms at its distinct
        values: the same operations on the same operands."""
        squares = None
        for j, values, inverse in zip(self.kept, self.values, self.inverse):
            term = values[:, None] - block[:, j]
            term *= scales[j]
            term *= term
            if squares is None:
                squares = term[inverse]
            else:
                squares += term[inverse]
        return np.sqrt(squares, out=squares).T.copy()


class DictionaryIndex:
    """Decoded dictionary entries as arrays, for ranking query points."""

    def __init__(self, space: SearchSpace, genes, powers) -> None:
        """genes: (m, d) distinct grid points in gene order, as
        io.load_dictionary_arrays and PowerDictionary.arrays give them (ties
        go to the lower row); powers: their (m,) values."""
        if len(powers) == 0:
            raise QueryError("dictionary is empty")
        self.space = space
        self.genes = np.asarray(genes)
        self.powers = np.asarray(powers, dtype=float)
        self.columns = np.ascontiguousarray(space.decode_many(self.genes).T)

    def __len__(self) -> int:
        return len(self.powers)

    def _grouped(self, scales: np.ndarray) -> _Groups:
        """The groups whose free axis is the finest in distance units, the
        last of equals. On the shipped grids that is the sample size under
        the normalized metric, and a coefficient under the raw one, where
        the sample size dominates every distance so that a bound without it
        would prune nothing. Zero-scale axes add nothing to any distance and
        are free only when every axis is."""
        steps = np.array([r.step for r in self.space.ranges]) * scales
        finest = np.where(steps > 0, steps, np.inf)[::-1]
        free = len(finest) - 1 - int(np.argmin(finest))
        return _Groups(self.genes, self.columns, free)

    def _entries(
        self, groups: _Groups, block: np.ndarray, scales: np.ndarray, query: np.ndarray, group: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Query, row and distance of every entry of each (query, group)
        pair, as flat arrays, pair by pair."""
        sizes = groups.sizes[group]
        ends = np.cumsum(sizes)
        positions = np.arange(sizes.sum()) + np.repeat(groups.starts[group] - (ends - sizes), sizes)
        query, row = np.repeat(query, sizes), groups.order[positions]
        return query, row, _distances(self.columns[:, row], block[query].T, scales)

    def _rank(self, points: np.ndarray, k: int, metric: str) -> tuple[np.ndarray, np.ndarray]:
        """Rows and distances, both (m, k), of the k nearest entries to each
        of the (m, d) points, nearest first. Distances within _TIE_TOL are
        ties, won by the lower row: rows are in gene order."""
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
        groups = self._grouped(scales)
        rows = np.empty((len(points), k), dtype=np.intp)
        distances = np.empty((len(points), k))
        step = max(1, _CHUNK_BYTES // groups.query_bytes(k))
        for start in range(0, len(points), step):
            block = slice(start, start + step)
            rows[block], distances[block] = self._rank_block(groups, points[block], scales, k)
        return rows, distances

    def _rank_block(
        self, groups: _Groups, block: np.ndarray, scales: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """_rank of one block of query points."""
        m = len(block)
        bounds = groups.bounds(block, scales)
        # The near groups: those within cut, the near-th smallest bound, so
        # at least k (or all) of them. U, the k-th smallest distance over
        # their entries, is at least d_k, the k-th smallest over all entries.
        near = min(k, len(groups.starts))
        cut = np.partition(bounds, near - 1, axis=1)[:, near - 1, None]
        query, row, dist = self._entries(groups, block, scales, *_pairs(bounds <= cut))
        reach = _kth(query, dist, m, k) + _TIE_TOL
        # Every entry within d_k + _TIE_TOL lies in a group whose bound is
        # within U + _TIE_TOL: a near group, or one of the groups further
        # out, whose entries are computed here, once. Of all those entries,
        # the candidates are the ones within U + _TIE_TOL, ascending by
        # query, then distance. Each entry within _TIE_TOL of the one before
        # it is tied with it, and ties go to the lower row.
        further = self._entries(groups, block, scales, *_pairs((bounds > cut) & (bounds <= reach[:, None])))
        query, row, dist = (np.concatenate(pair) for pair in zip((query, row, dist), further))
        keep = dist <= reach[query]
        query, row, dist = query[keep], row[keep], dist[keep]
        order = np.lexsort((dist, query))
        query, row, dist = query[order], row[order], dist[order]
        within = dist <= dist[_firsts(query, m) + k - 1][query] + _TIE_TOL
        query, row, dist = query[within], row[within], dist[within]
        ties = np.cumsum(np.diff(dist, prepend=dist[:1]) > _TIE_TOL)
        top = np.lexsort((row, ties, query))[_firsts(query, m)[:, None] + np.arange(k)]
        return row[top], dist[top]

    def nearest(self, query: NeighborQuery) -> list[Neighbor]:
        point = np.asarray(query.point, dtype=float).reshape(1, -1)
        (rows,), (distances,) = self._rank(point, query.k, query.metric)
        return [
            Neighbor(Chromosome(tuple(self.genes[i].tolist())), float(self.powers[i]), float(d))
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
    return DictionaryIndex(space, *dictionary.arrays()).nearest(query)

