import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from powermap import Chromosome, GridError, ParameterRange, SearchSpace


def desk_space():
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.10, 0.30, 0.05),
            ParameterRange(0.30, 0.90, 0.05),
        ),
        sample_size_range=ParameterRange(50, 200, 5),
    )


class TestParameterRange:
    def test_grid_count_handles_inexact_spans(self):
        # 0.30 - 0.10 is not an exact binary multiple of 0.05
        assert ParameterRange(0.10, 0.30, 0.05).grid_count == 5
        assert ParameterRange(0.30, 0.90, 0.05).grid_count == 13
        assert ParameterRange(50, 500, 5).grid_count == 91
        assert ParameterRange(0.05, 0.50, 0.05).grid_count == 10

    def test_dropped_remainder(self):
        r = ParameterRange(0.0, 1.0, 0.3)
        assert r.grid_count == 4
        assert r.top_value == pytest.approx(0.9)

    def test_value_at_refuses_an_index_off_the_grid(self):
        r = ParameterRange(0.0, 1.0, 0.3)
        with pytest.raises(GridError, match="index 4 out of range for grid of 4 points"):
            r.value_at(r.grid_count)

    def test_validation(self):
        with pytest.raises(GridError):
            ParameterRange(0.0, 1.0, 0.0)
        with pytest.raises(GridError):
            ParameterRange(2.0, 1.0, 0.1)
        for lower, upper, step in ((0.1, math.inf, 0.1), (math.nan, 0.5, 0.1), (0.1, 1e300, 1e-300)):
            with pytest.raises(GridError, match="not a finite grid"):
                ParameterRange(lower, upper, step)


class TestDecode:
    def test_lower_bound(self):
        r = ParameterRange(0.10, 0.30, 0.05)
        assert r.value_at(0) == pytest.approx(0.10)

    def test_upper_bound_by_construction(self):
        r = ParameterRange(0.10, 0.30, 0.05)
        assert r.value_at(4) == pytest.approx(0.30)

    def test_hand_evaluated_point(self):
        # lower + index * step: 0.10 + 2*0.05 = 0.20, 50 + 10*5 = 100
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.10, 0.30, 0.05),),
            sample_size_range=ParameterRange(50, 500, 5),
        )
        values = space.decode(Chromosome((2, 10)))
        np.testing.assert_allclose(values, [0.20, 100.0])
        assert values[-1] == 100.0  # exact integer

    def test_out_of_range_index_names_dimension(self):
        space = desk_space()
        with pytest.raises(GridError, match="theta_2"):
            space.decode(Chromosome((0, 13, 0)))
        with pytest.raises(GridError, match="sample size"):
            space.decode(Chromosome((0, 0, 31)))

    def test_wrong_length(self):
        with pytest.raises(GridError, match="genes"):
            desk_space().decode(Chromosome((0, 0)))

    def test_negative_gene_refused(self):
        with pytest.raises(GridError, match="non-negative"):
            Chromosome((-1, 0))

    def test_decode_many_equals_decode_bit_for_bit(self):
        space = desk_space()
        grid = list(space.enumerate_grid())
        decoded = space.decode_many([c.genes for c in grid])
        assert decoded.tolist() == [space.decode(c).tolist() for c in grid]
        assert space.decode_many([]).shape == (0, space.dimension)


class TestSnap:
    def test_nearest_multiple(self):
        r = ParameterRange(0.10, 0.30, 0.05)
        assert r.snap_index(0.1749) == 1  # 0.15 is closest

    def test_exact_grid_value(self):
        assert ParameterRange(0.10, 0.30, 0.05).snap_index(0.25) == 3

    def test_midpoint_rounds_to_lower_index(self):
        assert ParameterRange(0.10, 0.30, 0.05).snap_index(0.125) == 0

    def test_outside_band_raises(self):
        space = desk_space()
        with pytest.raises(GridError, match="theta_1"):
            space.snap([0.07, 0.5, 100])  # < 0.10 - 0.025
        with pytest.raises(GridError, match="sample size"):
            space.snap([0.2, 0.5, 1000])

    def test_wrong_number_of_values(self):
        with pytest.raises(GridError, match="expected 3 values, got shape \\(2,\\)"):
            desk_space().snap([0.2, 100])

    def test_band_covers_dropped_remainder(self):
        # grid {0, 0.3, 0.6, 0.9}, upper 1.0: values up to 1.15 snap to index 3
        r = ParameterRange(0.0, 1.0, 0.3)
        assert r.snap_index(1.04) == 3
        with pytest.raises(GridError):
            r.snap_index(1.2)


class TestRandomChromosome:
    def test_output_valid(self):
        space = desk_space()
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = space.random_chromosome(rng)
            assert all(g < n for g, n in zip(c.genes, space.grid_counts))

    def test_degenerate_grid_yields_single_point(self):
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.5, 0.5, 0.1),),
            sample_size_range=ParameterRange(10, 10, 1),
        )
        rng = np.random.default_rng(1)
        assert all(
            space.random_chromosome(rng) == Chromosome((0, 0)) for _ in range(20)
        )

    def test_per_dimension_uniformity(self):
        """Chi-squared goodness of fit per dimension over 10^4 draws."""
        space = desk_space()
        rng = np.random.default_rng(2024)
        draws = np.array([space.random_chromosome(rng).genes for _ in range(10_000)])
        for j, count in enumerate(space.grid_counts):
            observed = np.bincount(draws[:, j], minlength=count)
            _, p = scipy_stats.chisquare(observed)
            assert p > 0.001, f"dimension {j} non-uniform (p={p})"


class TestEnumerateGrid:
    def test_two_by_three_lexicographic(self):
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.0, 0.1, 0.1),),
            sample_size_range=ParameterRange(10, 30, 10),
        )
        chroms = list(space.enumerate_grid())
        assert [c.genes for c in chroms] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_product_count(self):
        space = SearchSpace(
            coefficient_ranges=(
                ParameterRange(0.10, 0.30, 0.05),
                ParameterRange(0.30, 0.90, 0.05),
            ),
            sample_size_range=ParameterRange(50, 500, 5),
        )
        assert space.grid_counts == (5, 13, 91)
        assert space.grid_size == 5915
        assert sum(1 for _ in space.enumerate_grid()) == 5915

    def test_single_dimension_order(self):
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.0, 0.3, 0.1),),
            sample_size_range=ParameterRange(5, 5, 1),
        )
        genes = [c.genes for c in space.enumerate_grid()]
        assert genes == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_distinct_keys(self):
        space = desk_space()
        keys = set(space.enumerate_grid())
        assert len(keys) == space.grid_size


class TestSearchSpaceValidation:
    def test_non_integer_sample_range(self):
        with pytest.raises(GridError, match="integer"):
            SearchSpace(
                coefficient_ranges=(ParameterRange(0.1, 0.3, 0.05),),
                sample_size_range=ParameterRange(50.5, 100, 5),
            )

    def test_minimum_sample_size(self):
        with pytest.raises(GridError, match=">= 3"):
            SearchSpace(
                coefficient_ranges=(ParameterRange(0.1, 0.3, 0.05),),
                sample_size_range=ParameterRange(2, 100, 5),
            )

    def test_requires_a_coefficient(self):
        with pytest.raises(GridError):
            SearchSpace(
                coefficient_ranges=(),
                sample_size_range=ParameterRange(50, 100, 5),
            )


# ---------------------------------------------------------------------------
# properties


@st.composite
def spaces(draw):
    n_coeff = draw(st.integers(1, 3))
    coeffs = []
    for _ in range(n_coeff):
        lower = draw(st.floats(-2, 2, allow_nan=False, allow_infinity=False))
        step = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5]))
        count = draw(st.integers(1, 8))
        coeffs.append(ParameterRange(lower, lower + (count - 1) * step, step))
    n_lower = draw(st.integers(3, 50))
    n_step = draw(st.integers(1, 10))
    n_count = draw(st.integers(1, 8))
    sample = ParameterRange(n_lower, n_lower + (n_count - 1) * n_step, n_step)
    return SearchSpace(coefficient_ranges=tuple(coeffs), sample_size_range=sample)


@given(spaces(), st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_decode_snap_roundtrip_on_grid_points(space, seed):
    rng = np.random.default_rng(seed)
    c = space.random_chromosome(rng)
    assert space.snap(space.decode(c)) == c


@given(spaces())
@settings(max_examples=50, deadline=None)
def test_enumeration_matches_grid_size_and_counts(space):
    chroms = list(space.enumerate_grid())
    assert len(chroms) == space.grid_size
    assert len(set(chroms)) == space.grid_size


@given(st.lists(st.integers(0, 10), min_size=1, max_size=5))
def test_chromosome_hash_equality_agree(genes):
    a = Chromosome(tuple(genes))
    b = Chromosome(tuple(genes))
    assert a == b and hash(a) == hash(b)
    c = Chromosome(tuple(genes) + (0,))
    assert a != c
