import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powermap import (
    Chromosome,
    NeighborQuery,
    ParameterRange,
    PowerDictionary,
    QueryError,
    SearchSpace,
    k_nearest,
)
from powermap import knn
from powermap.knn import DictionaryIndex


def make_space():
    return SearchSpace(
        coefficient_ranges=(ParameterRange(0.1, 0.9, 0.1),),
        sample_size_range=ParameterRange(50, 500, 50),
    )


def fill(space, genes_to_power):
    d = PowerDictionary()
    for genes, power in genes_to_power.items():
        d.insert(Chromosome(genes), power)
    return d


def brute_force_neighbors(d, space, point, k, metric):
    """Independent oracle: exhaustive sort with the same tie convention."""
    spans = [r.upper - r.lower for r in space.ranges]
    if metric == "normalized_euclidean":
        scales = [1.0 / s if s > 0 else 0.0 for s in spans]
    else:
        scales = [1.0] * len(spans)
    rows = []
    for c, power in d.items():
        values = space.decode(c)
        dist = math.sqrt(
            sum(((v - q) * s) ** 2 for v, q, s in zip(values, point, scales))
        )
        rows.append((dist, c.genes, power))
    rows.sort()
    return rows[:k]


class TestKNearest:
    def test_stored_point_is_its_own_neighbor(self):
        space = make_space()
        d = fill(space, {(0, 0): 0.2, (4, 4): 0.8, (8, 8): 0.99})
        point = tuple(space.decode(Chromosome((4, 4))))
        (nb,) = k_nearest(d, space, NeighborQuery(point=point, k=1))
        assert nb.chromosome == Chromosome((4, 4))
        assert nb.distance == 0.0
        assert nb.power == 0.8

    def test_collinear_points_ordered_by_distance(self):
        space = make_space()
        d = fill(space, {(0, 0): 0.1, (4, 0): 0.5, (8, 0): 0.9})
        point = tuple(space.decode(Chromosome((0, 0))))
        neighbors = k_nearest(d, space, NeighborQuery(point=point, k=2))
        assert [nb.chromosome.genes for nb in neighbors] == [(0, 0), (4, 0)]
        assert neighbors[0].distance <= neighbors[1].distance

    def test_matches_exhaustive_sort(self):
        space = make_space()  # 9 x 10 grid
        rng = np.random.default_rng(1234)
        d = PowerDictionary()
        while len(d) < 80:
            c = space.random_chromosome(rng)
            if c not in d:
                d.insert(c, float(rng.random()))
        for metric in ("normalized_euclidean", "raw_euclidean"):
            for _ in range(25):
                point = (
                    float(rng.uniform(0.1, 0.9)),
                    float(rng.uniform(50, 500)),
                )
                k = int(rng.integers(1, 20))
                got = k_nearest(
                    d, space, NeighborQuery(point=point, k=k, metric=metric)
                )
                want = brute_force_neighbors(d, space, point, k, metric)
                assert [nb.chromosome.genes for nb in got] == [w[1] for w in want]
                np.testing.assert_allclose(
                    [nb.distance for nb in got], [w[0] for w in want], atol=1e-12
                )

    def test_tie_break_lexicographic(self):
        # integer grid so the symmetric distances are exactly equal floats
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.0, 8.0, 1.0),),
            sample_size_range=ParameterRange(50, 500, 50),
        )
        # (3,0) and (5,0) are equidistant from the point decoded at (4,0)
        d = fill(space, {(5, 0): 0.9, (3, 0): 0.1})
        point = tuple(space.decode(Chromosome((4, 0))))
        neighbors = k_nearest(d, space, NeighborQuery(point=point, k=2))
        assert [nb.chromosome.genes for nb in neighbors] == [(3, 0), (5, 0)]

    def test_metric_changes_neighborhoods(self):
        space = make_space()
        # Under raw Euclidean the n axis dominates: a point 50 units away in n
        # is farther than one 0.8 away in the coefficient. Normalized flips it.
        d = fill(space, {(8, 0): 0.9, (0, 1): 0.1})
        point = tuple(space.decode(Chromosome((0, 0))))
        raw = k_nearest(d, space, NeighborQuery(point=point, k=1, metric="raw_euclidean"))
        norm = k_nearest(
            d, space, NeighborQuery(point=point, k=1, metric="normalized_euclidean")
        )
        assert raw[0].chromosome.genes == (8, 0)
        assert norm[0].chromosome.genes == (0, 1)

    def test_zero_span_dimension_ignored(self):
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.5, 0.5, 0.1),),
            sample_size_range=ParameterRange(50, 100, 10),
        )
        d = fill(space, {(0, 0): 0.3, (0, 5): 0.7})
        got = k_nearest(d, space, NeighborQuery(point=(0.5, 60.0), k=1))
        assert got[0].chromosome.genes == (0, 0)

    def test_k_larger_than_dictionary(self):
        space = make_space()
        d = fill(space, {(0, 0): 0.5})
        with pytest.raises(QueryError, match="exceeds"):
            k_nearest(d, space, NeighborQuery(point=(0.5, 100.0), k=2))

    def test_empty_dictionary(self):
        with pytest.raises(QueryError, match="empty"):
            k_nearest(PowerDictionary(), make_space(), NeighborQuery((0.5, 100.0), 1))

    def test_wrong_point_length(self):
        space = make_space()
        d = fill(space, {(0, 0): 0.5})
        with pytest.raises(QueryError, match="shape"):
            k_nearest(d, space, NeighborQuery(point=(0.5,), k=1))

    def test_shrinking_k_never_widens_radius(self):
        space = make_space()
        rng = np.random.default_rng(7)
        d = PowerDictionary()
        while len(d) < 40:
            c = space.random_chromosome(rng)
            if c not in d:
                d.insert(c, float(rng.random()))
        point = (0.42, 260.0)
        radii = [
            max(nb.distance for nb in k_nearest(d, space, NeighborQuery(point, k)))
            for k in range(1, 30)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(radii, radii[1:]))


class TestPredictPower:
    def test_k1_at_stored_point_echoes_value(self):
        space = make_space()
        d = fill(space, {(2, 3): 0.62, (7, 8): 0.9})
        point = tuple(space.decode(Chromosome((2, 3))))
        (got,) = DictionaryIndex(d, space).predict([point], 1, "normalized_euclidean")
        assert got == 0.62

    def test_unweighted_mean(self):
        space = make_space()
        d = fill(space, {(0, 0): 0.2, (1, 0): 0.4, (0, 1): 0.9})
        point = tuple(space.decode(Chromosome((0, 0))))
        (got,) = DictionaryIndex(d, space).predict([point], 3, "normalized_euclidean")
        assert got == pytest.approx((0.2 + 0.4 + 0.9) / 3)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 15))
    @settings(max_examples=50, deadline=None)
    def test_prediction_inside_neighbor_hull(self, seed, k):
        space = make_space()
        rng = np.random.default_rng(seed)
        d = PowerDictionary()
        while len(d) < 15:
            c = space.random_chromosome(rng)
            if c not in d:
                d.insert(c, float(rng.random()))
        point = (float(rng.uniform(0.1, 0.9)), float(rng.uniform(50, 500)))
        query = NeighborQuery(point=point, k=k)
        neighbors = k_nearest(d, space, query)
        (prediction,) = DictionaryIndex(d, space).predict([point], k, query.metric)
        powers = [nb.power for nb in neighbors]
        assert min(powers) - 1e-12 <= prediction <= max(powers) + 1e-12


class TestNeighborQueryValidation:
    def test_k_floor(self):
        with pytest.raises(QueryError):
            NeighborQuery(point=(0.1, 50.0), k=0)

    def test_metric_name(self):
        with pytest.raises(QueryError):
            NeighborQuery(point=(0.1, 50.0), k=1, metric="manhattan")


class TestLatticeTies:
    def test_rounding_does_not_reorder_tied_neighbours(self):
        """On the desk grid, (0,1,20) and (0,3,15) are equally far from
        (0,3,20) (two theta_2 steps vs one n step, each 1/6 of its span);
        the lower gene order must win."""
        space = SearchSpace(
            coefficient_ranges=(
                ParameterRange(0.10, 0.30, 0.05),
                ParameterRange(0.30, 0.90, 0.05),
            ),
            sample_size_range=ParameterRange(50, 200, 5),
        )
        d = PowerDictionary()
        d.insert(Chromosome((0, 3, 15)), 0.25)
        d.insert(Chromosome((0, 1, 20)), 0.75)
        point = tuple(space.decode(Chromosome((0, 3, 20))))
        (nearest,) = k_nearest(d, space, NeighborQuery(point=point, k=1))
        assert nearest.chromosome.genes == (0, 1, 20)


def desk_space():
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.10, 0.30, 0.05),
            ParameterRange(0.30, 0.90, 0.05),
        ),
        sample_size_range=ParameterRange(50, 200, 5),
    )


# Squared distance between desk grid points, times a constant that makes it
# an exact integer: normalized steps are 1/4, 1/12 and 1/30 of each span,
# raw steps 0.05, 0.05 and 5.
DESK_WEIGHTS = {
    "normalized_euclidean": np.array([225, 25, 4]),
    "raw_euclidean": np.array([1, 1, 10_000]),
}


def exact_rows(index, genes, k, metric):
    """The tie rule with exact arithmetic: ascending integer squared
    distance, ties to the lower row (gene order)."""
    key = ((index.genes - genes) ** 2 * DESK_WEIGHTS[metric]).sum(axis=1)
    return np.lexsort((np.arange(len(key)), key))[:k]


class TestBatchedPredict:
    """DictionaryIndex.predict against the exact tie rule on a desk
    dictionary, where equidistant lattice points are common."""

    @pytest.fixture(scope="class")
    def desk(self):
        space = desk_space()
        rng = np.random.default_rng(2022)
        d = PowerDictionary()
        while len(d) < 325:
            c = space.random_chromosome(rng)
            if c not in d:
                d.insert(c, float(rng.random()))
        unseen = [c for c in space.enumerate_grid() if c not in d]
        points = np.array([space.decode(c) for c in unseen])
        return DictionaryIndex(d, space), unseen, points

    @pytest.mark.parametrize("metric", ["normalized_euclidean", "raw_euclidean"])
    @pytest.mark.parametrize("k", [1, 5, 8])
    def test_every_unseen_point(self, desk, k, metric):
        index, unseen, points = desk
        rows = [exact_rows(index, np.array(c.genes), k, metric) for c in unseen]
        got = index.predict(points, k, metric)
        want = np.array([np.mean(index.powers[r]) for r in rows])
        assert np.array_equal(got, want)  # bit-identical, so the same rows
        for c, point, r in zip(unseen, points, rows):
            neighbors = index.nearest(NeighborQuery(tuple(point), k, metric))
            assert [nb.chromosome for nb in neighbors] == [index.chromosomes[i] for i in r]

    @pytest.mark.parametrize("queries_per_block", ["one", "all"])
    def test_chunking_does_not_change_values(self, desk, monkeypatch, queries_per_block):
        index, _, points = desk
        want = index.predict(points, 7, "normalized_euclidean")
        block = 1 if queries_per_block == "one" else len(points)
        monkeypatch.setattr(knn, "_CHUNK_BYTES", 8 * len(index) * block)
        assert np.array_equal(index.predict(points, 7, "normalized_euclidean"), want)

    def test_zero_points(self, desk):
        index, _, _ = desk
        assert index.predict([], 5, "normalized_euclidean").shape == (0,)
        assert index.predict(np.empty((0, 3)), 5, "raw_euclidean").shape == (0,)

    def test_wrong_dimension(self, desk):
        index, _, _ = desk
        with pytest.raises(QueryError, match="shape"):
            index.predict(np.zeros((4, 2)), 5, "normalized_euclidean")

    @pytest.mark.parametrize(
        "k, metric, point, match",
        [
            (0, "normalized_euclidean", (0.2, 0.5, 100.0), "k must be"),
            (5, "manhattan", (0.2, 0.5, 100.0), "metric"),
            (326, "normalized_euclidean", (0.2, 0.5, 100.0), "exceeds"),
            (5, "normalized_euclidean", (0.2, float("nan"), 100.0), "finite"),
        ],
    )
    def test_invalid_queries(self, desk, k, metric, point, match):
        index, _, _ = desk
        with pytest.raises(QueryError, match=match):
            index.predict([point], k, metric)
