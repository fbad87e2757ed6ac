import hashlib
import math
from pathlib import Path

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
from powermap.config import load_run_config

ROOT = Path(__file__).resolve().parent.parent


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


# Reference copies of the operators as they were on Chromosome lists: the
# spec that the gene-tuple operators must match gene for gene and draw for
# draw (same values, same generator state afterwards).


def reference_initialize_population(space, size, rng):
    return [space.random_chromosome(rng) for _ in range(size)]


def reference_reproduce(population, fitness, selection_lambda, rng):
    probs = selection_probabilities(fitness, selection_lambda)
    picks = rng.choice(len(population), size=len(population), replace=True, p=probs)
    return [population[i] for i in picks]


def reference_mutate(population, mutation_prob, space, rng):
    counts = space.grid_counts
    out = []
    for c in population:
        if rng.random() < mutation_prob:
            gene = int(rng.integers(0, len(counts)))
            value = int(rng.integers(0, counts[gene]))
            genes = list(c.genes)
            genes[gene] = value
            out.append(Chromosome(tuple(genes)))
        else:
            out.append(c)
    return out


def reference_crossover_best_two(population, fitness, rng):
    n = len(population)
    length = len(population[0].genes)
    order = sorted(range(n), key=lambda i: (-fitness[i], population[i].genes))
    first, second = population[order[0]], population[order[1]]
    split = int(rng.integers(1, length))
    child_a = Chromosome(first.genes[:split] + second.genes[split:])
    child_b = Chromosome(second.genes[:split] + first.genes[split:])
    out = list(population)
    out[order[-1]] = child_a
    out[order[-2]] = child_b
    return out


def space_with_counts(counts):
    """A search space whose grid_counts are counts (the last is sample size)."""
    return SearchSpace(
        coefficient_ranges=tuple(ParameterRange(0.0, c - 1.0, 1.0) for c in counts[:-1]),
        sample_size_range=ParameterRange(10, 10 + 5 * (counts[-1] - 1), 5),
    )


def genes_of(chromosomes):
    return [c.genes for c in chromosomes]


def twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


# Grid counts per dimension: small ones (1 makes a dimension draw nothing),
# and ones beyond 32 bits, which numpy bounds with 64-bit draws.
grid_counts = st.lists(
    st.one_of(st.integers(1, 40), st.integers(2**32, 2**40)), min_size=2, max_size=4
)
seeds = st.integers(0, 2**32 - 1)


class TestStreamIdentity:
    """Each operator equals its reference copy in genes and in the
    generator state it leaves behind."""

    @given(grid_counts, st.integers(0, 60), seeds)
    @settings(max_examples=150, deadline=None)
    def test_initialize_population(self, counts, size, seed):
        space = space_with_counts(counts)
        ours, theirs = twin_generators(seed)
        population = initialize_population(space, size, ours)
        assert population == genes_of(reference_initialize_population(space, size, theirs))
        assert all(type(g) is int for genes in population for g in genes)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("path", ["desk.json", "interaction_study.json"])
    def test_initialize_population_shipped_configs(self, path):
        space = load_run_config(ROOT / "configs" / path).space
        ours, theirs = twin_generators(1)
        population = initialize_population(space, 1000, ours)
        assert population == genes_of(reference_initialize_population(space, 1000, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("mutation_prob", [0.0, 0.05, 1.0])
    @given(grid_counts, st.integers(1, 60), seeds)
    @settings(max_examples=60, deadline=None)
    def test_mutate(self, mutation_prob, counts, size, seed):
        space = space_with_counts(counts)
        ours, theirs = twin_generators(seed)
        population = reference_initialize_population(space, size, ours)
        theirs.bit_generator.state = ours.bit_generator.state
        mutated = mutate(genes_of(population), mutation_prob, space, ours)
        assert mutated == genes_of(reference_mutate(population, mutation_prob, space, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(
        st.lists(st.integers(1, 3), min_size=2, max_size=4),
        st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]), min_size=2, max_size=40),
        seeds,
    )
    @settings(max_examples=200, deadline=None)
    def test_crossover_best_two(self, counts, fitness, seed):
        """Small grids make duplicate members, a few fitness levels make
        ties, and -1 is the sentinel of a fresh mutant."""
        space = space_with_counts(counts)
        ours, theirs = twin_generators(seed)
        population = reference_initialize_population(space, len(fitness), ours)
        theirs.bit_generator.state = ours.bit_generator.state
        known = np.array(fitness)
        result = crossover_best_two(genes_of(population), known, ours)
        assert result == genes_of(reference_crossover_best_two(population, known, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40),
        st.floats(-20, 20, allow_nan=False),
        seeds,
    )
    @settings(max_examples=150, deadline=None)
    def test_reproduce(self, fitness, selection_lambda, seed):
        population = [(i, 0) for i in range(len(fitness))]
        ours, theirs = twin_generators(seed)
        picked, picked_fitness = reproduce(population, fitness, selection_lambda, ours)
        chromosomes = [Chromosome(genes) for genes in population]
        assert picked == genes_of(reference_reproduce(chromosomes, fitness, selection_lambda, theirs))
        assert picked_fitness.tolist() == [fitness[i] for i, _ in picked]
        assert ours.bit_generator.state == theirs.bit_generator.state


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
        assert population[0] == population[1] == (0, 0)

    def test_per_dimension_uniformity(self):
        space = small_space()
        rng = np.random.default_rng(123)
        population = initialize_population(space, 10_000, rng)
        draws = np.array(population)
        for j, count in enumerate(space.grid_counts):
            _, p = scipy_stats.chisquare(np.bincount(draws[:, j], minlength=count))
            assert p > 0.001


class TestReproduce:
    def test_dominant_fitness_takes_over(self):
        rng = np.random.default_rng(2)
        population = [(i, 0) for i in range(4)]
        fitness = [0.0, 1.0, 0.0, 0.0]
        offspring, offspring_fitness = reproduce(population, fitness, 200.0, rng)
        assert all(genes == population[1] for genes in offspring)
        assert offspring_fitness.tolist() == [1.0] * 4

    def test_lambda_zero_selects_uniformly(self):
        rng = np.random.default_rng(3)
        population = [(i, 0) for i in range(5)]
        fitness = [0.9, 0.1, 0.5, 0.3, 0.7]
        counts = np.zeros(5)
        for _ in range(2000):
            for genes in reproduce(population, fitness, 0.0, rng)[0]:
                counts[genes[0]] += 1
        _, p = scipy_stats.chisquare(counts)
        assert p > 0.001

    def test_output_size(self):
        rng = np.random.default_rng(4)
        population = [(i, 0) for i in range(6)]
        offspring, offspring_fitness = reproduce(population, [0.5] * 6, 1.0, rng)
        assert len(offspring) == len(offspring_fitness) == 6

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match="lengths differ"):
            reproduce([(0, 0), (1, 0)], [0.5], 1.0, np.random.default_rng(4))


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
            differing = sum(a != b for a, b in zip(before, after))
            assert differing <= 1

    def test_mutated_genes_stay_on_grid(self):
        space = small_space()
        rng = np.random.default_rng(7)
        population = initialize_population(space, 50, rng)
        for genes in mutate(population, 1.0, space, rng):
            assert all(g < n for g, n in zip(genes, space.grid_counts))


class TestCrossover:
    def test_identical_parents_change_nothing(self):
        rng = np.random.default_rng(8)
        population = [(1, 2)] * 4
        fitness = [0.9, 0.8, 0.1, 0.2]
        assert crossover_best_two(population, fitness, rng) == population

    def test_known_split(self):
        population = [(7, 7, 7, 7), (9, 9, 9, 9), (0, 1, 2, 3), (3, 2, 1, 0)]
        fitness = [0.9, 0.8, 0.1, 0.2]
        result = crossover_best_two(population, fitness, _FixedSplitRng(2))
        assert result[0] == population[0]  # parents survive
        assert result[1] == population[1]
        # offspring replace the two worst (lowest fitness first)
        assert result[2] == (7, 7, 9, 9)
        assert result[3] == (9, 9, 7, 7)

    def test_tied_least_fit_higher_key_replaced_first(self):
        population = [(7, 7), (9, 9), (0, 1), (1, 0)]
        fitness = [0.9, 0.8, -1.0, -1.0]
        result = crossover_best_two(population, fitness, _FixedSplitRng(1))
        assert result[3] == (7, 9)  # first child: the higher key (1, 0) goes first
        assert result[2] == (9, 7)

    def test_offspring_mix_prefix_and_suffix(self):
        rng = np.random.default_rng(9)
        space = small_space()
        for _ in range(50):
            population = initialize_population(space, 6, rng)
            fitness = list(rng.random(6))
            order = sorted(range(6), key=lambda i: (-fitness[i], population[i]))
            pa, pb = population[order[0]], population[order[1]]
            result = crossover_best_two(population, fitness, rng)
            for child in (result[order[-1]], result[order[-2]]):
                L = len(child)
                ok = any(
                    child == pa[:s] + pb[s:] or child == pb[:s] + pa[s:]
                    for s in range(1, L)
                )
                assert ok

    def test_population_size_preserved(self):
        rng = np.random.default_rng(10)
        population = initialize_population(small_space(), 9, rng)
        assert len(crossover_best_two(population, list(rng.random(9)), rng)) == 9

    @pytest.mark.parametrize(
        "population, fitness, message",
        [
            ([(0, 1), (1, 0)], [0.5], "lengths differ"),
            ([(0, 1)], [0.5], "at least two members"),
            ([(0,), (1,)], [0.5, 0.2], "at least two genes"),
        ],
    )
    def test_refusals(self, population, fitness, message):
        with pytest.raises(ValueError, match=message):
            crossover_best_two(population, fitness, np.random.default_rng(11))


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


class _OverCountingOracle(PowerOracle):
    """Counts one query more than it answers."""

    def evaluate_many(self, chromosomes):
        self.total_queries += 1
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

    def test_memoization_check_catches_a_miscount(self, monkeypatch):
        monkeypatch.setattr(powermap.ga, "PowerOracle", _OverCountingOracle)
        config = GaConfig(population_size=4, iterations=1, master_seed=5)
        with pytest.raises(AssertionError, match="memoization broken: \\d+ entries vs \\d+ oracle queries"):
            run(small_space(), fast_oracle_config(), config)

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

    @pytest.mark.parametrize(
        "case, new_queries, last, per_iteration_sha, arrays_sha",
        [
            (
                "small-5",
                [10, 7, 0, 2, 0, 0, 1, 1, 0, 0, 4],
                (0.96, 0.6766666666666667),
                "4e1c49b3c397f4d33f02d8c996f228e42e7c61e70414dd9153ba153a91f309b3",
                "c5f17f5342362b54e6e1ea3134d49195afe3fb63aac666d4bb50c91d623e5619",
            ),
            (
                "small-13",
                [10, 0, 2, 1, 1, 2, 3, 2, 2, 1, 1],
                (1.0, 0.8066666666666666),
                "d1f6cfd6d0a6635637d0dada8dda67ed60f7d115fbd8fbd84353944baeccb3b6",
                "4cb846ed32171dd431f6356d4cd08fafa28528f0ab6739e9b61c24a5ac72ee9f",
            ),
            (
                "desk",
                [191, 3, 3, 7, 4, 7, 1, 9, 4, 11, 7, 4, 0, 4, 2, 3,
                 3, 6, 3, 3, 6, 2, 0, 3, 6, 1, 4, 1, 1, 7, 4],
                (1.0, 0.94735),
                "762f1f25054c39f8c0ed26682114f89889253992545146b741f9d0ece4ed6e33",
                "b705adb53d633ce8c5af66090431975bd35ed801e2de33f7ae87c616180dc532",
            ),
        ],
    )
    def test_frozen_trajectory(self, case, new_queries, last, per_iteration_sha, arrays_sha):
        """The search's trajectory, frozen from the Chromosome-list loop: a
        change to the draw order or to the oracle's query order fails here.
        small-S runs small_space() at master seed S (mutation 0.5, so new
        points keep coming); desk is configs/desk.json at master seed 1,
        oracle seed 2022."""
        if case == "desk":
            desk = load_run_config(ROOT / "configs" / "desk.json")
            report = run(desk.space, desk.oracle, desk.ga, oracle_seed=2022)
        else:
            seed = int(case.split("-")[1])
            config = GaConfig(12, 10, mutation_prob=0.5, master_seed=seed)
            report = run(small_space(), fast_oracle_config(), config)
        genes, powers = report.dictionary.arrays()
        final = report.per_iteration[-1]
        assert [s.new_queries for s in report.per_iteration] == new_queries
        assert (final.best_fitness, final.mean_fitness) == last
        assert hashlib.sha256(repr(report.per_iteration).encode()).hexdigest() == per_iteration_sha
        assert hashlib.sha256(genes.tobytes() + powers.tobytes()).hexdigest() == arrays_sha

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

    def test_master_seed_floor(self):
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            GaConfig(population_size=2, iterations=1, master_seed=-1)
