"""Population search over the grid with memoized fitness.

The population is a list of gene tuples with a fitness array aligned to it.
Each iteration evaluates only the members whose genes changed since their
fitness was read (all of them at the start): each gets a Chromosome and a
dictionary lookup, and unseen ones go to the oracle. Then come softmax
selection, per-member single-gene mutation, and a single-split crossover of
the two fittest members. The insert-only chromosome-to-power dictionary
accumulated along the way is the learned surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .grid import Chromosome, SearchSpace
from .oracle import OracleConfig, PowerOracle


@dataclass(frozen=True)
class GaConfig:
    population_size: int
    iterations: int
    selection_lambda: float = 1.0
    mutation_prob: float = 0.05
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError(
                f"population_size must be >= 2 (crossover needs two parents), "
                f"got {self.population_size}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not np.isfinite(self.selection_lambda):
            raise ValueError(f"selection_lambda must be finite, got {self.selection_lambda}")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob must be in [0, 1], got {self.mutation_prob}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


class PowerDictionary(dict[Chromosome, float]):
    """Insert-only map from chromosome to estimated power: a dict whose
    entries are added through insert.

    Values are never overwritten: the oracle is deterministic per chromosome,
    so a second insert for the same key indicates a memoization bug.
    """

    def insert(self, chromosome: Chromosome, power: float) -> None:
        if chromosome in self:
            raise ValueError(f"duplicate insert for {chromosome.genes}")
        if not 0.0 <= power <= 1.0:
            raise ValueError(f"power {power} outside [0, 1]")
        self[chromosome] = power

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Genes, an (m, d) integer array, and powers, an (m,) array, in
        lexicographic gene order (the canonical export order)."""
        items = sorted(self.items(), key=lambda kv: kv[0].genes)
        return (
            np.array([c.genes for c, _ in items], dtype=np.intp),
            np.array([power for _, power in items], dtype=float),
        )


@dataclass(frozen=True)
class IterationStats:
    """Telemetry for one evaluation phase (the final entry, numbered
    iterations + 1, is the terminal-population evaluation)."""

    iteration: int
    new_queries: int
    best_fitness: float
    mean_fitness: float


@dataclass
class GaReport:
    dictionary: PowerDictionary
    oracle_queries: int
    per_iteration: list[IterationStats]
    elapsed_seconds: float


def initialize_population(
    space: SearchSpace, size: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """size independent uniform grid points (duplicates permitted), as gene
    tuples; one draw with the values and stream state of size
    random_chromosome calls."""
    counts = space.grid_counts
    return [tuple(g) for g in rng.integers(0, counts, size=(size, len(counts))).tolist()]


def selection_probabilities(fitness, selection_lambda: float) -> np.ndarray:
    """Softmax of lambda * fitness, computed with max-subtraction."""
    z = selection_lambda * np.asarray(fitness, dtype=float)
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def reproduce(
    population: list[tuple[int, ...]],
    fitness,
    selection_lambda: float,
    rng: np.random.Generator,
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Resample the population with replacement, biased toward high fitness;
    returns the picked members and their fitness."""
    if len(population) != len(fitness):
        raise ValueError("population and fitness lengths differ")
    probs = selection_probabilities(fitness, selection_lambda)
    picks = rng.choice(len(population), size=len(population), replace=True, p=probs)
    return [population[i] for i in picks], np.asarray(fitness, dtype=float)[picks]


def mutate(
    population: list[tuple[int, ...]],
    mutation_prob: float,
    space: SearchSpace,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Each member independently, with the given probability, has one
    uniformly chosen gene replaced by a uniform grid value of that dimension
    (which may equal the old value)."""
    counts = space.grid_counts
    out = list(population)
    for i, genes in enumerate(population):
        if rng.random() < mutation_prob:
            gene = int(rng.integers(0, len(counts)))
            value = int(rng.integers(0, counts[gene]))
            out[i] = genes[:gene] + (value,) + genes[gene + 1 :]
    return out


def crossover_best_two(
    population: list[tuple[int, ...]],
    fitness,
    rng: np.random.Generator,
) -> list[tuple[int, ...]]:
    """Split the two fittest members at a uniform interior index and swap
    tails; the two offspring replace the two least-fit members (for
    populations of four or more the parents survive).

    Fitness ties are broken by gene order: the lower key ranks first, so
    among equally least-fit members the higher key is replaced first.
    """
    n = len(population)
    if n != len(fitness):
        raise ValueError("population and fitness lengths differ")
    if n < 2:
        raise ValueError("crossover needs at least two members")
    length = len(population[0])
    if length < 2:
        raise ValueError("crossover needs at least two genes")
    genes = np.fromiter(chain.from_iterable(population), np.intp, n * length).reshape(n, length)
    order = np.lexsort((*genes.T[::-1], -np.asarray(fitness, dtype=float)))
    first, second = population[order[0]], population[order[1]]
    split = int(rng.integers(1, length))
    out = list(population)
    out[order[-1]] = first[:split] + second[split:]
    out[order[-2]] = second[:split] + first[split:]
    return out


def _changed(before: list, after: list) -> list[int]:
    """Rows whose genes differ."""
    return [i for i, (a, b) in enumerate(zip(before, after)) if a != b]


def run(
    space: SearchSpace,
    oracle_config: OracleConfig,
    ga_config: GaConfig,
    *,
    oracle_seed: int | None = None,
    worker_count: int = 1,
) -> GaReport:
    """Run the full search and return the learned dictionary plus telemetry.

    oracle_seed defaults to the GA master seed; passing it separately lets
    several exploration seeds share one oracle stream (their dictionaries
    then agree exactly wherever they overlap).

    The terminal population is evaluated after the last iteration, so every
    chromosome the search produced has a recorded power value.
    """
    rng = np.random.default_rng(ga_config.master_seed)
    seed = ga_config.master_seed if oracle_seed is None else oracle_seed
    start = time.perf_counter()
    with PowerOracle(space, oracle_config, seed, worker_count) as oracle:
        dictionary = PowerDictionary()
        telemetry: list[IterationStats] = []
        population = initialize_population(space, ga_config.population_size, rng)
        fitness = np.empty(len(population))
        rows = range(len(population))
        for iteration in range(1, ga_config.iterations + 2):
            members = [Chromosome(population[i]) for i in rows]
            pending = list(dict.fromkeys(c for c in members if c not in dictionary))
            for c, value in zip(pending, oracle.evaluate_many(pending)):
                dictionary.insert(c, value)
            if len(dictionary) != oracle.total_queries:
                raise AssertionError(
                    f"memoization broken: {len(dictionary)} entries vs "
                    f"{oracle.total_queries} oracle queries"
                )
            for i, c in zip(rows, members):
                fitness[i] = dictionary[c]
            best, mean = float(fitness.max()), float(fitness.mean())
            telemetry.append(IterationStats(iteration, len(pending), best, mean))
            if iteration > ga_config.iterations:
                break  # the terminal population is evaluated, not evolved
            parents, fitness = reproduce(population, fitness, ga_config.selection_lambda, rng)
            mutants = mutate(parents, ga_config.mutation_prob, space, rng)
            hits = _changed(parents, mutants)
            # Fresh mutants have no recorded fitness yet; they rank below any
            # true power value, so they are never picked as parents and are
            # the first candidates for replacement.
            for i in hits:
                fitness[i] = dictionary.get(Chromosome(mutants[i]), -1.0)
            population = crossover_best_two(mutants, fitness, rng)
            # In row order, so that unseen members reach the oracle in their
            # first-occurrence order over the population.
            rows = sorted({*hits, *_changed(mutants, population)})
        queries = oracle.total_queries
    return GaReport(
        dictionary=dictionary,
        oracle_queries=queries,
        per_iteration=telemetry,
        elapsed_seconds=time.perf_counter() - start,
    )
