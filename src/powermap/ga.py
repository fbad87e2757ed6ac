"""Population search over the grid with memoized fitness.

Each iteration evaluates the population (dictionary lookup first, oracle only
for unseen points), then applies softmax selection, per-chromosome single-gene
mutation, and a single-split crossover of the two fittest members. The
insert-only chromosome-to-power dictionary accumulated along the way is the
learned surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
) -> list[Chromosome]:
    """size independent uniform grid points (duplicates permitted)."""
    return [space.random_chromosome(rng) for _ in range(size)]


def selection_probabilities(fitness, selection_lambda: float) -> np.ndarray:
    """Softmax of lambda * fitness, computed with max-subtraction."""
    z = selection_lambda * np.asarray(fitness, dtype=float)
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def reproduce(
    population: list[Chromosome],
    fitness,
    selection_lambda: float,
    rng: np.random.Generator,
) -> list[Chromosome]:
    """Resample the population with replacement, biased toward high fitness."""
    if len(population) != len(fitness):
        raise ValueError("population and fitness lengths differ")
    probs = selection_probabilities(fitness, selection_lambda)
    picks = rng.choice(len(population), size=len(population), replace=True, p=probs)
    return [population[i] for i in picks]


def mutate(
    population: list[Chromosome],
    mutation_prob: float,
    space: SearchSpace,
    rng: np.random.Generator,
) -> list[Chromosome]:
    """Each chromosome independently, with the given probability, has one
    uniformly chosen gene replaced by a uniform grid value of that dimension
    (which may equal the old value)."""
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


def crossover_best_two(
    population: list[Chromosome],
    fitness,
    rng: np.random.Generator,
) -> list[Chromosome]:
    """Split the two fittest members at a uniform interior index and swap
    tails; the two offspring replace the two least-fit members (for
    populations of four or more the parents survive).

    Fitness ties are broken by gene order, lower key first.
    """
    n = len(population)
    if n != len(fitness):
        raise ValueError("population and fitness lengths differ")
    if n < 2:
        raise ValueError("crossover needs at least two members")
    length = len(population[0].genes)
    if length < 2:
        raise ValueError("crossover needs at least two genes")
    order = sorted(range(n), key=lambda i: (-fitness[i], population[i].genes))
    first, second = population[order[0]], population[order[1]]
    split = int(rng.integers(1, length))
    child_a = Chromosome(first.genes[:split] + second.genes[split:])
    child_b = Chromosome(second.genes[:split] + first.genes[split:])
    out = list(population)
    out[order[-1]] = child_a
    out[order[-2]] = child_b
    return out


def _resolve_fitness(
    population: list[Chromosome],
    dictionary: PowerDictionary,
    oracle: PowerOracle,
) -> tuple[np.ndarray, int]:
    """Fitness for every member: dictionary lookup, oracle for unseen keys.

    Unseen chromosomes are deduplicated before querying, so a key can never
    reach the oracle twice.
    """
    pending = list(dict.fromkeys(c for c in population if c not in dictionary))
    for c, value in zip(pending, oracle.evaluate_many(pending)):
        dictionary.insert(c, value)
    if len(dictionary) != oracle.total_queries:
        raise AssertionError(
            f"memoization broken: {len(dictionary)} entries vs "
            f"{oracle.total_queries} oracle queries"
        )
    fitness = np.array([dictionary[c] for c in population])
    return fitness, len(pending)


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
        for iteration in range(1, ga_config.iterations + 2):
            fitness, new_queries = _resolve_fitness(population, dictionary, oracle)
            telemetry.append(
                IterationStats(
                    iteration=iteration,
                    new_queries=new_queries,
                    best_fitness=float(fitness.max()),
                    mean_fitness=float(fitness.mean()),
                )
            )
            if iteration > ga_config.iterations:
                break  # the terminal population is evaluated, not evolved
            population = reproduce(
                population, fitness, ga_config.selection_lambda, rng
            )
            population = mutate(population, ga_config.mutation_prob, space, rng)
            # Fresh mutants have no recorded fitness yet; they rank below any
            # true power value, so they are never picked as parents and are
            # the first candidates for replacement.
            known = np.array([dictionary.get(c, -1.0) for c in population])
            population = crossover_best_two(population, known, rng)
        queries = oracle.total_queries
    return GaReport(
        dictionary=dictionary,
        oracle_queries=queries,
        per_iteration=telemetry,
        elapsed_seconds=time.perf_counter() - start,
    )
