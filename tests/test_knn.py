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
        (got,) = DictionaryIndex(space, *d.arrays()).predict([point], 1, "normalized_euclidean")
        assert got == 0.62

    def test_unweighted_mean(self):
        space = make_space()
        d = fill(space, {(0, 0): 0.2, (1, 0): 0.4, (0, 1): 0.9})
        point = tuple(space.decode(Chromosome((0, 0))))
        (got,) = DictionaryIndex(space, *d.arrays()).predict([point], 3, "normalized_euclidean")
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
        (prediction,) = DictionaryIndex(space, *d.arrays()).predict([point], k, query.metric)
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
        return DictionaryIndex(space, *d.arrays()), unseen, points

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
            assert [nb.chromosome.genes for nb in neighbors] == [tuple(index.genes[i]) for i in r]

    @pytest.mark.parametrize("queries_per_block", ["one", "all"])
    def test_chunking_does_not_change_values(self, desk, monkeypatch, queries_per_block):
        index, _, points = desk
        want = index.predict(points, 7, "normalized_euclidean")
        block = 1 if queries_per_block == "one" else len(points)
        groups = index._grouped(knn._scales(index.space, "normalized_euclidean"))
        monkeypatch.setattr(knn, "_CHUNK_BYTES", groups.query_bytes(7) * block)
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


def full_scan(index, points, k, metric):
    """Rows and distances of the k nearest entries by exhaustive scan: every
    distance, summed one dimension at a time in order, then the tie rule in
    plain Python. Entries within _TIE_TOL of the k-th smallest distance are
    ranked by distance, each within _TIE_TOL of the one before it tied with
    it, and ties go to the lower row."""
    scales = knn._scales(index.space, metric)
    squares = np.zeros((len(points), len(index)))
    for j in range(index.space.dimension):
        delta = (index.columns[j] - points[:, j, None]) * scales[j]
        squares += delta * delta
    rows, distances = [], []
    for dist in np.sqrt(squares).tolist():
        ascending = sorted(range(len(dist)), key=lambda r: (dist[r], r))
        reach = dist[ascending[k - 1]] + knn._TIE_TOL
        tie, ties, previous = 0, {}, None
        for r in ascending:
            if dist[r] > reach:
                break
            if previous is not None and dist[r] - previous > knn._TIE_TOL:
                tie += 1
            ties[r], previous = tie, dist[r]
        top = sorted(ties, key=lambda r: (ties[r], r))[:k]
        rows.append(top)
        distances.append([dist[r] for r in top])
    return np.array(rows), np.array(distances)


# Squared steps of the interaction grid below, times 32,400: exact integers.
INTERACTION_WEIGHTS = {
    "normalized_euclidean": np.array([2025, 225, 400, 4]),  # steps 1/4, 1/12, 1/9, 1/90
    "raw_euclidean": np.array([1, 1, 1, 10_000]),  # steps 0.05, 0.05, 0.05, 5
}


def interaction_space(n_upper=500):
    """The shipped interaction study's grid (5 x 13 x 10 x 91 points)."""
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.10, 0.30, 0.05),
            ParameterRange(0.30, 0.90, 0.05),
            ParameterRange(0.05, 0.50, 0.05),
        ),
        sample_size_range=ParameterRange(50, n_upper, 5),
    )


def random_dictionary(space, size, rng):
    flat = rng.choice(space.grid_size, size=size, replace=False)
    d = PowerDictionary()
    for genes in np.array(np.unravel_index(flat, space.grid_counts)).T.tolist():
        d.insert(Chromosome(tuple(genes)), float(rng.integers(0, 1001)) / 1000)
    return d


def random_queries(space, kind, count, rng):
    """Off-grid points in the box, grid points, or points around the box up
    to a span beyond each side."""
    lower = np.array([r.lower for r in space.ranges])
    upper = np.array([r.upper for r in space.ranges])
    if kind == "on-grid":
        genes = np.column_stack([rng.integers(0, c, count) for c in space.grid_counts])
        return space.decode_many(genes)
    if kind == "off-grid":
        return lower + rng.random((count, len(lower))) * (upper - lower)
    span = np.maximum(upper - lower, 1.0)
    return lower - span + rng.random((count, len(lower))) * 3 * span


def assert_ranked_exactly(index, points, k, metric):
    rows, distances = index._rank(points, k, metric)
    want_rows, want_distances = full_scan(index, points, k, metric)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(distances, want_distances)  # bit for bit


class TestPrunedRanking:
    """The pruned ranking returns the rows and distances of an exhaustive
    scan, ties included."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 400),
        kind=st.sampled_from(["off-grid", "on-grid", "outside"]),
        metric=st.sampled_from(knn.METRICS),
        k=st.sampled_from(["one", "some", "all"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_interaction_grid_equals_full_scan(self, seed, size, kind, metric, k):
        space = interaction_space(n_upper=150)  # 5 x 13 x 10 x 21 points
        rng = np.random.default_rng(seed)
        index = DictionaryIndex(space, *random_dictionary(space, size, rng).arrays())
        k = {"one": 1, "some": int(rng.integers(1, min(size, 12) + 1)), "all": size}[k]
        assert_ranked_exactly(index, random_queries(space, kind, 25, rng), k, metric)

    @given(
        seed=st.integers(0, 2**32 - 1),
        counts=st.tuples(*[st.integers(1, 4)] * 3, st.integers(1, 12)),
        size=st.integers(1, 60),
        kind=st.sampled_from(["off-grid", "on-grid", "outside"]),
        metric=st.sampled_from(knn.METRICS),
    )
    @settings(max_examples=60, deadline=None)
    def test_zero_span_and_small_grids_equal_full_scan(self, seed, counts, size, kind, metric):
        """Grids with single-point (zero-span) dimensions, where every
        dimension's scale may be 0 under the normalized metric."""
        steps = (0.1, 0.25, 0.05)
        space = SearchSpace(
            coefficient_ranges=tuple(
                ParameterRange(0.2, 0.2 + (c - 1) * s, s) for c, s in zip(counts, steps)
            ),
            sample_size_range=ParameterRange(10, 10 + (counts[3] - 1) * 10, 10),
        )
        rng = np.random.default_rng(seed)
        size = min(size, space.grid_size)
        index = DictionaryIndex(space, *random_dictionary(space, size, rng).arrays())
        for k in sorted({1, int(rng.integers(1, size + 1)), size}):
            assert_ranked_exactly(index, random_queries(space, kind, 15, rng), k, metric)

    @pytest.mark.parametrize("metric", knn.METRICS)
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_lattice_queries_match_exact_arithmetic(self, metric, k):
        """Grid points as queries, the ties decided in integers."""
        space = interaction_space()
        rng = np.random.default_rng(9)
        index = DictionaryIndex(space, *random_dictionary(space, 2000, rng).arrays())
        genes = np.column_stack([rng.integers(0, c, 1000) for c in space.grid_counts])
        rows, _ = index._rank(space.decode_many(genes), k, metric)
        weights = INTERACTION_WEIGHTS[metric]
        for start in range(0, len(genes), 100):
            block = genes[start : start + 100, None, :]
            key = ((index.genes - block) ** 2 * weights).sum(axis=2)
            row = np.broadcast_to(np.arange(len(index)), key.shape)
            want = np.lexsort((row, key), axis=1)[:, :k]
            assert np.array_equal(rows[start : start + 100], want)

    @pytest.mark.parametrize("metric", knn.METRICS)
    def test_one_group(self, metric):
        """Entries that differ only in the sample size: one group under the
        normalized metric."""
        space = interaction_space()
        d = fill(space, {(2, 6, 3, n): n / 100 for n in range(0, 91, 3)})
        index = DictionaryIndex(space, *d.arrays())
        if metric == "normalized_euclidean":
            assert len(index._grouped(knn._scales(space, metric)).starts) == 1
        points = random_queries(space, "off-grid", 40, np.random.default_rng(4))
        for k in (1, 5, len(index)):
            assert_ranked_exactly(index, points, k, metric)

    @pytest.mark.parametrize("metric", knn.METRICS)
    def test_one_entry_per_group(self, metric):
        """One sample size per coefficient triple: every group one entry
        under the normalized metric."""
        space = interaction_space()
        rng = np.random.default_rng(5)
        d = fill(space, {
            (a, b, c, int(rng.integers(0, 91))): float(rng.random())
            for a in range(5) for b in range(0, 13, 2) for c in range(0, 10, 3)
        })
        index = DictionaryIndex(space, *d.arrays())
        if metric == "normalized_euclidean":
            assert set(index._grouped(knn._scales(space, metric)).sizes) == {1}
        points = random_queries(space, "off-grid", 40, np.random.default_rng(6))
        for k in (1, 5, len(index)):
            assert_ranked_exactly(index, points, k, metric)

    def test_free_axis_is_the_finest(self):
        """Normalized: the sample size (90 steps); raw: a coefficient (0.05
        against 5), the last of the equally fine ones."""
        index = DictionaryIndex(interaction_space(), *fill(interaction_space(), {(0, 0, 0, 0): 0.5}).arrays())
        for metric, kept in (("normalized_euclidean", [0, 1, 2]), ("raw_euclidean", [0, 1, 3])):
            assert index._grouped(knn._scales(index.space, metric)).kept == kept

    @pytest.mark.parametrize("metric", knn.METRICS)
    @pytest.mark.parametrize("grid", ["interaction", "desk", "zero-span", "zero-scale"])
    def test_bounds_equal_distances_bit_for_bit(self, grid, metric):
        """The group bounds, built from each kept axis's terms at its distinct
        values, equal _distances over the groups' coordinates. Zero-span
        axes have scale 0 under the normalized metric; "zero-scale" zeroes
        the scale of an axis that has a span."""
        rng = np.random.default_rng(12)
        if grid == "zero-span":
            space = SearchSpace(
                coefficient_ranges=(
                    ParameterRange(0.2, 0.2, 0.05), ParameterRange(0.3, 0.9, 0.05), ParameterRange(0.5, 0.5, 0.1),
                ),
                sample_size_range=ParameterRange(50, 200, 5),
            )
        else:
            space = desk_space() if grid == "desk" else interaction_space()
        index = DictionaryIndex(space, *random_dictionary(space, min(1500, space.grid_size // 2), rng).arrays())
        scales = knn._scales(space, metric)
        if grid == "zero-scale":
            scales[1] = 0.0
        groups = index._grouped(scales)
        for kind in ("off-grid", "on-grid", "outside"):
            points = random_queries(space, kind, 200, rng)
            want = knn._distances(groups.columns, points.T[groups.kept, :, None], scales[groups.kept])
            assert np.array_equal(groups.bounds(points, scales), want)

    @pytest.mark.parametrize("metric", knn.METRICS)
    def test_sparse_lattice_equals_full_scan(self, metric):
        """Groups on a diagonal of the kept-axis lattice, so that at most one
        in twenty of its cells holds a group, under either metric."""
        space = interaction_space()
        rng = np.random.default_rng(13)
        d = fill(space, {(a, 2 * a + 1, 9 - a, n): float(rng.random()) for a in range(5) for n in range(a, 91, 6)})
        index = DictionaryIndex(space, *d.arrays())
        groups = index._grouped(knn._scales(space, metric))
        cells = np.prod([len(values) for values in groups.values])
        assert len(groups.starts) * 20 <= cells
        for kind in ("off-grid", "outside"):
            points = random_queries(space, kind, 60, rng)
            for k in (1, 5, 17, len(index)):
                assert_ranked_exactly(index, points, k, metric)

    @pytest.mark.parametrize("metric", knn.METRICS)
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_bounds_tied_at_the_cut_equal_full_scan(self, metric, k):
        """Coefficients at the integers and queries at half-integers: each
        query's four surrounding groups have exactly equal bounds, so the
        first pass takes every group tied at the cut, more than k."""
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.0, 5.0, 1.0), ParameterRange(0.0, 5.0, 1.0)),
            sample_size_range=ParameterRange(3, 12, 1),
        )
        rng = np.random.default_rng(14)
        index = DictionaryIndex(space, *random_dictionary(space, 200, rng).arrays())
        scales = knn._scales(space, metric)
        groups = index._grouped(scales)
        assert groups.kept == [0, 1]
        halves = rng.integers(0, 5, (50, 2)) + 0.5
        points = np.column_stack([halves, rng.uniform(3, 12, 50)])
        bounds = groups.bounds(points, scales)
        near = min(k, len(groups.starts))
        cut = np.partition(bounds, near - 1, axis=1)[:, near - 1, None]
        assert ((bounds <= cut).sum(axis=1) > near).all()
        assert_ranked_exactly(index, points, k, metric)
