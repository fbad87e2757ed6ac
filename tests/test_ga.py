import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

import powermap.ga
from powermap import (
    Chromosome,
    GaConfig,
    OracleConfig,
    ParameterRange,
    PowerDictionary,
    PowerOracle,
    SearchSpace,
    TestSpec,
    crossover_best_two,
    initialize_population,
    mutate,
    reproduce,
    run,
    selection_probabilities,
)


def small_space():
    return SearchSpace(
        coefficient_ranges=(ParameterRange(0.1, 0.5, 0.1),),
        sample_size_range=ParameterRange(10, 100, 10),
    )


def fast_oracle_config(nsim=25):
    return OracleConfig(
        nsim=nsim, alpha=0.05, sigma2=1.0, test=TestSpec((1,), "t_single"),
        scheme="normal",
    )


class _FixedSplitRng:
    """Stands in for a Generator when a crossover test needs a known split."""

    def __init__(self, split):
        self.split = split

    def integers(self, low, high=None):
        return self.split


class TestSelectionProbabilities:
    def test_lambda_zero_uniform(self):
        probs = selection_probabilities([0.9, 0.1, 0.4, 0.7], 0.0)
        np.testing.assert_allclose(probs, 0.25)

    def test_hand_computed_softmax(self):
        probs = selection_probabilities([0.2, 0.8], 1.0)
        # exp(0.2)/(exp(0.2)+exp(0.8)) and its complement, to four places
        assert probs[0] == pytest.approx(0.3543, abs=5e-5)
        assert probs[1] == pytest.approx(0.6457, abs=5e-5)

    def test_equal_fitness_uniform(self):
        probs = selection_probabilities([0.6] * 7, 3.0)
        np.testing.assert_allclose(probs, 1 / 7)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
        st.floats(-20, 20, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalized_and_argmax_preserving(self, fitness, lam):
        probs = selection_probabilities(fitness, lam)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0)
        if lam > 0:
            # the fittest member always gets a maximal share (softmax is
            # monotone); ties and underflowing lam make index equality too
            # strict a phrasing
            assert probs[np.argmax(fitness)] == probs.max()

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
        st.floats(0, 10, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, fitness, lam, shift):
        base = selection_probabilities(fitness, lam)
        shifted = selection_probabilities([f + shift for f in fitness], lam)
        np.testing.assert_allclose(base, shifted, atol=1e-12)


class TestInitializePopulation:
    def test_exact_size(self):
        rng = np.random.default_rng(0)
        assert len(initialize_population(small_space(), 37, rng)) == 37

    def test_degenerate_grid_duplicates(self):
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.2, 0.2, 0.1),),
            sample_size_range=ParameterRange(10, 10, 5),
        )
        rng = np.random.default_rng(1)
        population = initialize_population(space, 2, rng)
        assert population[0] == population[1] == Chromosome((0, 0))

    def test_per_dimension_uniformity(self):
        space = small_space()
        rng = np.random.default_rng(123)
        population = initialize_population(space, 10_000, rng)
        draws = np.array([c.genes for c in population])
        for j, count in enumerate(space.grid_counts):
            _, p = scipy_stats.chisquare(np.bincount(draws[:, j], minlength=count))
            assert p > 0.001


class TestReproduce:
    def test_dominant_fitness_takes_over(self):
        rng = np.random.default_rng(2)
        population = [Chromosome((i, 0)) for i in range(4)]
        fitness = [0.0, 1.0, 0.0, 0.0]
        offspring = reproduce(population, fitness, 200.0, rng)
        assert all(c == population[1] for c in offspring)

    def test_lambda_zero_selects_uniformly(self):
        rng = np.random.default_rng(3)
        population = [Chromosome((i, 0)) for i in range(5)]
        fitness = [0.9, 0.1, 0.5, 0.3, 0.7]
        counts = np.zeros(5)
        for _ in range(2000):
            for c in reproduce(population, fitness, 0.0, rng):
                counts[c.genes[0]] += 1
        _, p = scipy_stats.chisquare(counts)
        assert p > 0.001

    def test_output_size(self):
        rng = np.random.default_rng(4)
        population = [Chromosome((i, 0)) for i in range(6)]
        assert len(reproduce(population, [0.5] * 6, 1.0, rng)) == 6


class TestMutate:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(5)
        population = initialize_population(small_space(), 20, rng)
        assert mutate(population, 0.0, small_space(), rng) == population

    def test_certain_mutation_changes_at_most_one_gene(self):
        space = small_space()
        rng = np.random.default_rng(6)
        population = initialize_population(space, 50, rng)
        mutated = mutate(population, 1.0, space, rng)
        for before, after in zip(population, mutated):
            differing = sum(a != b for a, b in zip(before.genes, after.genes))
            assert differing <= 1

    def test_mutated_genes_stay_on_grid(self):
        space = small_space()
        rng = np.random.default_rng(7)
        population = initialize_population(space, 50, rng)
        for c in mutate(population, 1.0, space, rng):
            assert all(g < n for g, n in zip(c.genes, space.grid_counts))


class TestCrossover:
    def test_identical_parents_change_nothing(self):
        rng = np.random.default_rng(8)
        population = [Chromosome((1, 2))] * 4
        fitness = [0.9, 0.8, 0.1, 0.2]
        assert crossover_best_two(population, fitness, rng) == population

    def test_known_split(self):
        population = [
            Chromosome((7, 7, 7, 7)),
            Chromosome((9, 9, 9, 9)),
            Chromosome((0, 1, 2, 3)),
            Chromosome((3, 2, 1, 0)),
        ]
        fitness = [0.9, 0.8, 0.1, 0.2]
        result = crossover_best_two(population, fitness, _FixedSplitRng(2))
        assert result[0] == population[0]  # parents survive
        assert result[1] == population[1]
        # offspring replace the two worst (lowest fitness first)
        assert result[2] == Chromosome((7, 7, 9, 9))
        assert result[3] == Chromosome((9, 9, 7, 7))

    def test_offspring_mix_prefix_and_suffix(self):
        rng = np.random.default_rng(9)
        space = small_space()
        for _ in range(50):
            population = initialize_population(space, 6, rng)
            fitness = list(rng.random(6))
            order = sorted(range(6), key=lambda i: (-fitness[i], population[i].genes))
            pa, pb = population[order[0]], population[order[1]]
            result = crossover_best_two(population, fitness, rng)
            for child in (result[order[-1]], result[order[-2]]):
                L = len(child.genes)
                ok = any(
                    child.genes == pa.genes[:s] + pb.genes[s:]
                    or child.genes == pb.genes[:s] + pa.genes[s:]
                    for s in range(1, L)
                )
                assert ok

    def test_population_size_preserved(self):
        rng = np.random.default_rng(10)
        population = initialize_population(small_space(), 9, rng)
        assert len(crossover_best_two(population, list(rng.random(9)), rng)) == 9


class TestPowerDictionary:
    def test_insert_only(self):
        d = PowerDictionary()
        c = Chromosome((0, 1))
        d.insert(c, 0.5)
        with pytest.raises(ValueError, match="duplicate"):
            d.insert(c, 0.5)

    def test_range_check(self):
        d = PowerDictionary()
        with pytest.raises(ValueError):
            d.insert(Chromosome((0,)), 1.5)

    def test_arrays_in_gene_order(self):
        d = PowerDictionary()
        d.insert(Chromosome((1, 0)), 0.2)
        d.insert(Chromosome((0, 1)), 0.4)
        genes, powers = d.arrays()
        assert genes.tolist() == [[0, 1], [1, 0]] and genes.dtype == np.intp
        assert powers.tolist() == [0.4, 0.2]


class _CountingOracle(PowerOracle):
    """Records how many times each chromosome reaches the oracle."""

    calls: dict = {}

    def evaluate_many(self, chromosomes):
        for c in chromosomes:
            self.calls[c] = self.calls.get(c, 0) + 1
        return super().evaluate_many(chromosomes)


class TestRun:
    def test_dictionary_bounded_by_grid(self):
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.2, 0.2, 0.1),),
            sample_size_range=ParameterRange(10, 20, 10),
        )
        report = run(
            space,
            fast_oracle_config(),
            GaConfig(population_size=2, iterations=1, master_seed=0),
        )
        assert len(report.dictionary) <= 2
        assert len(report.dictionary) <= space.grid_size

    def test_memoization_contract(self, monkeypatch):
        _CountingOracle.calls = {}
        monkeypatch.setattr(powermap.ga, "PowerOracle", _CountingOracle)
        config = GaConfig(population_size=20, iterations=8, master_seed=5)
        report = run(small_space(), fast_oracle_config(), config)
        assert report.oracle_queries == len(report.dictionary)
        assert report.oracle_queries <= 20 * (8 + 1)
        assert max(_CountingOracle.calls.values()) == 1  # no key queried twice

    def test_telemetry_accounts_for_every_query(self):
        config = GaConfig(population_size=15, iterations=6, master_seed=8)
        report = run(small_space(), fast_oracle_config(), config)
        assert len(report.per_iteration) == 7  # 6 iterations + terminal evaluation
        assert sum(s.new_queries for s in report.per_iteration) == report.oracle_queries
        assert [s.iteration for s in report.per_iteration] == list(range(1, 8))

    def test_deterministic_reports(self):
        config = GaConfig(population_size=12, iterations=5, master_seed=13)
        a = run(small_space(), fast_oracle_config(), config)
        b = run(small_space(), fast_oracle_config(), config)
        assert dict(a.dictionary.items()) == dict(b.dictionary.items())
        assert a.per_iteration == b.per_iteration

    def test_deterministic_across_worker_counts(self):
        config = GaConfig(population_size=12, iterations=5, master_seed=13)
        a = run(small_space(), fast_oracle_config(), config, worker_count=1)
        b = run(small_space(), fast_oracle_config(), config, worker_count=2)
        assert dict(a.dictionary.items()) == dict(b.dictionary.items())
        assert a.per_iteration == b.per_iteration

    def test_oracle_seed_decouples_exploration_from_values(self):
        space = small_space()
        shared = 99
        a = run(space, fast_oracle_config(), GaConfig(12, 4, master_seed=1), oracle_seed=shared)
        b = run(space, fast_oracle_config(), GaConfig(12, 4, master_seed=2), oracle_seed=shared)
        common = set(a.dictionary.keys()) & set(b.dictionary.keys())
        assert common  # same search space, heavy overlap expected
        assert all(a.dictionary[c] == b.dictionary[c] for c in common)

    def test_selection_pressure_raises_mean_fitness(self):
        """Across 20 seeds, the average iteration-over-iteration change in
        mean population fitness is positive for most seeds (sign test)."""
        wins = 0
        seeds = range(20)
        for seed in seeds:
            report = run(
                small_space(),
                fast_oracle_config(),
                GaConfig(population_size=20, iterations=8, master_seed=seed),
            )
            means = [s.mean_fitness for s in report.per_iteration]
            deltas = np.diff(means)
            wins += deltas.mean() > 0
        # one-sided sign test: P(X >= wins | n=20, p=1/2) < 0.05
        n = len(list(seeds))
        p = sum(math.comb(n, j) for j in range(wins, n + 1)) / 2**n
        assert p < 0.05, f"{wins}/{n} seeds improved (p={p:.4f})"

    def test_dictionary_concentrates_on_high_power(self):
        """The learned dictionary over-samples the high-power region relative
        to the uniform grid, while touching only part of it.

        A fixed seed keeps this deterministic at unit scale, where the random
        initial population still dominates the dictionary; the seed-averaged
        version of the claim runs at full desk scale in the acceptance suite.
        """
        space = SearchSpace(
            coefficient_ranges=(ParameterRange(0.02, 0.20, 0.02),),
            sample_size_range=ParameterRange(10, 100, 10),
        )
        config = fast_oracle_config(nsim=40)
        from powermap import brute_force_manifold

        brute = brute_force_manifold(space, config, 4242)
        grid_mean = np.mean(list(brute.values()))
        report = run(
            space,
            config,
            GaConfig(population_size=30, iterations=40, master_seed=9),
            oracle_seed=4242,
        )
        dict_mean = np.mean(list(report.dictionary.values()))
        assert report.oracle_queries < space.grid_size
        assert dict_mean > grid_mean


class TestGaConfigValidation:
    def test_population_floor(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=1, iterations=1)

    def test_iteration_floor(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=2, iterations=0)

    def test_mutation_prob_range(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=2, iterations=1, mutation_prob=1.5)
