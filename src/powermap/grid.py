"""Discretized parameter grids and the integer-coordinate encoding of points.

A candidate point (the coefficient vector plus a sample size) is stored as a
tuple of integer grid indices rather than decoded real values, so that map
keys are exact and immune to floating-point drift.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np


class GridError(ValueError):
    """A value or index falls outside its grid dimension."""


# Relative slop when counting grid points and checking snap bands, so that
# spans like 0.30 - 0.10 (inexact in binary) still yield the intended count.
_REL_EPS = 1e-9


@dataclass(frozen=True)
class ParameterRange:
    """Inclusive [lower, upper] range discretized with a fixed step.

    The top grid point is lower + (grid_count - 1) * step. When the span is
    not an exact multiple of step this falls short of upper; the unreachable
    remainder is dropped (the CLI reports when that happens).
    """

    lower: float
    upper: float
    step: float

    def __post_init__(self) -> None:
        if not (self.step > 0):
            raise GridError(f"step must be > 0, got {self.step}")
        if self.lower > self.upper:
            raise GridError(f"lower {self.lower} exceeds upper {self.upper}")
        if not math.isfinite((self.upper - self.lower) / self.step):
            raise GridError(
                f"[{self.lower}, {self.upper}] in steps of {self.step} is not a finite grid"
            )

    @property
    def grid_count(self) -> int:
        span = (self.upper - self.lower) / self.step
        return int(math.floor(span + _REL_EPS)) + 1

    @property
    def top_value(self) -> float:
        return self.value_at(self.grid_count - 1)

    def value_at(self, index: int) -> float:
        if not 0 <= index < self.grid_count:
            raise GridError(
                f"index {index} out of range for grid of {self.grid_count} points"
            )
        return self.lower + index * self.step

    def snap_index(self, value: float) -> int:
        """Nearest grid index; exact midpoints round toward the lower index."""
        band = self.step / 2 + _REL_EPS * self.step
        if value < self.lower - band or value > self.upper + band:
            raise GridError(
                f"value {value} outside snap band "
                f"[{self.lower - self.step / 2}, {self.upper + self.step / 2}]"
            )
        q = (value - self.lower) / self.step
        index = math.ceil(q - 0.5)
        return min(max(index, 0), self.grid_count - 1)


@dataclass(frozen=True)
class Chromosome:
    """Integer grid coordinates of one candidate point.

    Equality and hashing are defined on the indices, never on decoded reals.
    """

    genes: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(g < 0 for g in self.genes):
            raise GridError(f"gene indices must be non-negative, got {self.genes}")


@dataclass(frozen=True)
class SearchSpace:
    """Per-dimension ranges: one per regression coefficient, plus sample size.

    The sample-size range must be integer-valued with lower >= 3, so every
    decoded sample size supports an intercept-and-slope fit.
    """

    coefficient_ranges: tuple[ParameterRange, ...]
    sample_size_range: ParameterRange

    def __post_init__(self) -> None:
        if len(self.coefficient_ranges) < 1:
            raise GridError("at least one coefficient range is required")
        r = self.sample_size_range
        for name, v in (("lower", r.lower), ("upper", r.upper), ("step", r.step)):
            if not float(v).is_integer():
                raise GridError(f"sample_size_range.{name} must be an integer, got {v}")
        if r.lower < 3:
            raise GridError(
                f"sample_size_range.lower must be >= 3 (got {r.lower}): "
                "smaller samples cannot support a regression fit"
            )

    @property
    def n_coefficients(self) -> int:
        return len(self.coefficient_ranges)

    @property
    def dimension(self) -> int:
        return self.n_coefficients + 1

    @property
    def ranges(self) -> tuple[ParameterRange, ...]:
        return self.coefficient_ranges + (self.sample_size_range,)

    @property
    def grid_counts(self) -> tuple[int, ...]:
        return tuple(r.grid_count for r in self.ranges)

    @property
    def grid_size(self) -> int:
        return math.prod(self.grid_counts)

    def _dim_name(self, j: int) -> str:
        return f"theta_{j + 1}" if j < self.n_coefficients else "sample size n"

    def decode(self, chromosome: Chromosome) -> np.ndarray:
        """Real values (theta_1..theta_p, n) at the chromosome's grid point."""
        ranges = self.ranges
        if len(chromosome.genes) != len(ranges):
            raise GridError(
                f"chromosome has {len(chromosome.genes)} genes, "
                f"space has {len(ranges)} dimensions"
            )
        for j, (g, r) in enumerate(zip(chromosome.genes, ranges)):
            if g >= r.grid_count:
                raise GridError(
                    f"gene {g} out of range for {self._dim_name(j)} "
                    f"(grid of {r.grid_count} points)"
                )
        return self.decode_many([chromosome.genes])[0]

    def decode_many(self, genes) -> np.ndarray:
        """decode of every row of an (m, d) array-like of grid genes, as an
        (m, d) array: lowers + genes * steps, the sample size rounded. The
        genes are not checked against the grid."""
        values = np.array(genes, dtype=float).reshape(-1, self.dimension)
        values *= [r.step for r in self.ranges]
        values += [r.lower for r in self.ranges]
        np.rint(values[:, -1], out=values[:, -1])
        return values

    def snap(self, values) -> Chromosome:
        """Chromosome at the nearest grid point to the given real vector."""
        values = np.asarray(values, dtype=float)
        ranges = self.ranges
        if values.shape != (len(ranges),):
            raise GridError(
                f"expected {len(ranges)} values, got shape {values.shape}"
            )
        genes = []
        for j, (v, r) in enumerate(zip(values, ranges)):
            try:
                genes.append(r.snap_index(float(v)))
            except GridError as exc:
                raise GridError(f"{self._dim_name(j)}: {exc}") from None
        return Chromosome(tuple(genes))

    def random_chromosome(self, rng: np.random.Generator) -> Chromosome:
        """Uniform over the grid, each dimension independent."""
        genes = tuple(int(rng.integers(0, c)) for c in self.grid_counts)
        return Chromosome(genes)

    def enumerate_grid(self) -> Iterator[Chromosome]:
        """Every grid point once, in lexicographic index order."""
        for genes in itertools.product(*(range(c) for c in self.grid_counts)):
            yield Chromosome(genes)
