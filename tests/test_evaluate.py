from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powermap import (
    Chromosome,
    GaConfig,
    GaReport,
    OracleConfig,
    ParameterRange,
    PowerDictionary,
    SearchSpace,
    TestSpec,
    brute_force_manifold,
    evaluate,
    rmse,
    run,
)
from powermap.config import load_run_config
from powermap.evaluate import EvaluationReport, GridBudgetError, SweepRow, score, write_sweep_csv
from powermap.knn import DictionaryIndex, PredictorConfig


DESK = load_run_config(Path(__file__).resolve().parent.parent / "configs" / "desk.json")


def tiny_space():
    return SearchSpace(
        coefficient_ranges=(ParameterRange(0.1, 0.5, 0.1),),
        sample_size_range=ParameterRange(20, 80, 20),
    )


def oracle_config(nsim=50):
    return OracleConfig(
        nsim=nsim, alpha=0.05, sigma2=1.0, test=TestSpec((1,), "t_single"),
        scheme="normal",
    )


def as_report(dictionary, queries=None):
    return GaReport(
        dictionary=dictionary,
        oracle_queries=len(dictionary) if queries is None else queries,
        per_iteration=[],
        elapsed_seconds=0.0,
    )


def reference_evaluate(ga, brute, space, k):
    """evaluate as a loop over the grid's Chromosomes, with a membership
    test and a lookup per point: the reference that score must equal."""
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
    predicted = iter(DictionaryIndex(space, *learned.arrays()).predict(
        space.decode_many([c.genes for c in grid if c not in learned]), k, "normalized_euclidean"
    ))
    candidate = [learned[c] if c in learned else next(predicted) for c in grid]
    return EvaluationReport(
        rmse_seen_only=rmse_seen,
        rmse_full_grid=rmse([brute[c] for c in grid], candidate),
        grid_size=size,
        ga_queries=ga.oracle_queries,
        query_ratio=ga.oracle_queries / size,
    )


def four_d_space():
    return SearchSpace(
        coefficient_ranges=(
            ParameterRange(0.0, 0.2, 0.1),
            ParameterRange(-0.3, 0.3, 0.15),
            ParameterRange(0.05, 0.5, 0.05),
        ),
        sample_size_range=ParameterRange(20, 500, 40),
    )


def random_dictionary(space, rows, powers):
    d = PowerDictionary()
    for i, power in zip(rows, powers):
        d.insert(Chromosome(tuple(map(int, np.unravel_index(i, space.grid_counts)))), float(power))
    return d


class TestScore:
    """score, over gene/power arrays, against the per-Chromosome loop."""

    @pytest.mark.parametrize("space", [DESK.space, four_d_space()], ids=["desk", "4d"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_chromosome_loop(self, space, seed):
        rng = np.random.default_rng(seed)
        size = space.grid_size
        truth = rng.integers(0, 201, size) / 200
        brute = random_dictionary(space, range(size), truth)
        count = int(rng.choice([1, 2, 7, rng.integers(1, size), size]))
        rows = rng.choice(size, size=count, replace=False)
        # The learned values agree with brute force at some points, as with
        # a shared oracle seed, and not at others.
        powers = np.where(rng.random(count) < 0.5, truth[rows], rng.integers(0, 201, count) / 200)
        ga = as_report(random_dictionary(space, rows, powers), queries=count + int(rng.integers(0, 50)))
        k = int(rng.integers(1, min(count, 9) + 1))
        want = reference_evaluate(ga, brute, space, k)
        got = score(ga.dictionary.arrays(), brute.arrays(), space, PredictorConfig(k), ga.oracle_queries)
        assert got.rmse_seen_only == want.rmse_seen_only
        assert got.rmse_full_grid == want.rmse_full_grid
        assert got == want
        assert evaluate(ga, brute, space, k) == want

    @pytest.mark.parametrize("seed", range(3))
    def test_learned_row_order_does_not_matter(self, seed):
        """The index breaks distance ties by grid order, not by the order of
        the learned rows, so shuffled rows score like sorted ones."""
        rng = np.random.default_rng(seed)
        space = DESK.space
        size = space.grid_size
        brute = random_dictionary(space, range(size), rng.random(size)).arrays()
        rows = np.sort(rng.choice(size, size=300, replace=False))
        genes, powers = random_dictionary(space, rows, rng.random(300)).arrays()
        shuffled = np.random.default_rng(0).permutation(len(powers))
        sorted_report, shuffled_report = (
            score((genes[order], powers[order]), brute, space, PredictorConfig(5), 300)
            for order in (np.arange(len(powers)), shuffled)
        )
        assert shuffled_report == sorted_report

    def test_repeated_learned_point_rejected(self):
        space = tiny_space()
        brute = random_dictionary(space, range(space.grid_size), np.full(space.grid_size, 0.5)).arrays()
        genes, powers = random_dictionary(space, [0, 5], [0.25, 0.5]).arrays()
        repeated = (np.vstack([genes, genes[:1]]), np.append(powers, 1 - powers[0]))
        with pytest.raises(ValueError, match="names a grid point more than once"):
            score(repeated, brute, space, PredictorConfig(1), 3)

    @pytest.mark.parametrize("fault", ["off-grid", "repeated"])
    def test_reference_must_cover_the_grid(self, fault):
        space = tiny_space()
        genes, powers = random_dictionary(space, range(space.grid_size), np.full(space.grid_size, 0.5)).arrays()
        genes[3] = (99, 0) if fault == "off-grid" else genes[4]
        learned = (genes[:2], powers[:2])
        with pytest.raises(ValueError, match="coverage"):
            score(learned, (genes, powers), space, PredictorConfig(1), 2)
        if fault == "off-grid":
            brute = PowerDictionary()
            for c, power in zip(genes.tolist(), powers):
                brute.insert(Chromosome(tuple(c)), power)
            with pytest.raises(ValueError, match="coverage"):
                evaluate(as_report(random_dictionary(space, [0], [0.5])), brute, space, k=1)


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0

    def test_hand_computed(self):
        # sqrt((0.3^2 + 0.4^2) / 2) = sqrt(0.125)
        assert rmse([0.0, 0.0], [0.3, 0.4]) == pytest.approx(0.35355339, abs=1e-8)

    def test_pairing_matters(self):
        # same multisets, different pairing: nonzero error
        assert rmse([0.1, 0.9], [0.9, 0.1]) > 0.0

    def test_symmetric(self):
        a, b = [0.1, 0.4, 0.7], [0.2, 0.2, 0.9]
        assert rmse(a, b) == rmse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([0.1], [0.1, 0.2])

    def test_empty(self):
        with pytest.raises(ValueError):
            rmse([], [])

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20),
        st.floats(0.1, 10, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_scales_linearly_with_residuals(self, values, factor):
        base = np.asarray(values)
        zero = np.zeros_like(base)
        assert rmse(zero, factor * base) == pytest.approx(
            factor * rmse(zero, base), rel=1e-9
        )


class TestBruteForce:
    def test_single_point_grid(self):
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.3, 0.3, 0.1),),
            sample_size_range=ParameterRange(30, 30, 5),
        )
        d = brute_force_manifold(space, oracle_config(), 1)
        assert len(d) == 1

    def test_full_coverage(self):
        space = tiny_space()
        d = brute_force_manifold(space, oracle_config(), 1)
        assert len(d) == space.grid_size
        assert all(c in d for c in space.enumerate_grid())

    def test_budget_guard(self):
        space = tiny_space()
        with pytest.raises(GridBudgetError, match=str(space.grid_size)) as refused:
            brute_force_manifold(space, oracle_config(), 1, grid_budget=5)
        assert isinstance(refused.value, ValueError)  # a refusal of the input, like every other

    def test_power_grows_with_sample_size(self):
        """Statistical sanity of the surface: along the n axis at the largest
        effect, power is non-decreasing up to Monte-Carlo noise."""
        space = tiny_space()
        d = brute_force_manifold(space, oracle_config(nsim=400), 7)
        powers = [d[Chromosome((4, j))] for j in range(4)]
        noise = 3 * np.sqrt(0.25 / 400)
        assert all(b >= a - 2 * noise for a, b in zip(powers, powers[1:]))


class TestEvaluate:
    def test_full_dictionary_gives_zero_error(self):
        space = tiny_space()
        brute = brute_force_manifold(space, oracle_config(), 3)
        report = evaluate(as_report(brute), brute, space, k=3)
        assert report.rmse_seen_only == 0.0
        assert report.rmse_full_grid == 0.0
        assert report.query_ratio == 1.0
        assert report.grid_size == space.grid_size

    def test_single_point_dictionary_is_constant_predictor(self):
        space = tiny_space()
        brute = brute_force_manifold(space, oracle_config(), 3)
        c0 = Chromosome((0, 0))
        single = PowerDictionary()
        single.insert(c0, brute[c0])
        report = evaluate(as_report(single), brute, space, k=1)
        reference = np.array([brute[c] for c in space.enumerate_grid()])
        expected = rmse(reference, np.full(len(reference), brute[c0]))
        assert report.rmse_full_grid == pytest.approx(expected, abs=1e-12)

    def test_shared_oracle_seed_zeroes_seen_rmse(self):
        space = tiny_space()
        seed = 31
        brute = brute_force_manifold(space, oracle_config(), seed)
        ga = run(
            space,
            oracle_config(),
            GaConfig(population_size=8, iterations=4, master_seed=5),
            oracle_seed=seed,
        )
        report = evaluate(ga, brute, space, k=3)
        assert report.rmse_seen_only == 0.0
        assert report.query_ratio <= 1.0

    def test_incomplete_brute_dictionary_rejected(self):
        space = tiny_space()
        partial = PowerDictionary()
        partial.insert(Chromosome((0, 0)), 0.5)
        with pytest.raises(ValueError, match="coverage"):
            evaluate(as_report(partial), partial, space, k=1)

    def test_entry_count_checked_before_grid_sized_arrays(self):
        """A reference whose space claims 10**12 points, far more than its
        entries, fails on the count before any grid-sized array exists."""
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0, 999_999, 1), ParameterRange(0, 999_999, 1)),
            sample_size_range=ParameterRange(20, 20, 1),
        )
        genes = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        powers = np.full(3, 0.5)
        with pytest.raises(ValueError, match="3 entries; expected full coverage of the 1000000000000-point"):
            score((genes, powers), (genes, powers), space, PredictorConfig(1), 3)

    def test_empty_learned_dictionary_rejected(self):
        space = tiny_space()
        brute = brute_force_manifold(space, oracle_config(), 3)
        with pytest.raises(ValueError, match="empty"):
            evaluate(as_report(PowerDictionary()), brute, space, k=1)


class TestSweepCsv:
    def test_columns_and_rows(self, tmp_path):
        path = tmp_path / "sweep.csv"
        rows = [
            SweepRow(100, 10, 120, 0.06, 0.0, 0.0621, 2200.0),
            SweepRow(400, 50, 690, 0.34, 0.0, 0.0305, 13000.0),
        ]
        write_sweep_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,I,oracle_queries,query_ratio,rmse_seen,rmse_full,elapsed_ms"
        assert lines[1].startswith("100,10,120,0.060000,")
        assert len(lines) == 3
