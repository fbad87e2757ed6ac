"""Monte-Carlo oracle for the rejection probability at one grid point.

The estimate is a pure function of (chromosome, oracle settings, master seed).
All replications of a grid point are rows drawn in order from one generator
seeded by the master seed and the chromosome's integer coordinates, so
repeated queries agree bit-for-bit regardless of call order, worker placement,
or how the replications are chunked.

Each chunk of replications is fitted with one batched QR of the augmented
design [intercept, untested slopes, tested slopes, y]. Its R factor carries
both tests: R[-1, -1]^2 is the full model's SSE, and the squared norm of the
tested rows of the last column is the rise in SSE when the tested slopes are
dropped. A single-slope t test is the one-slope F test (t^2 = F(1, df)), so
one cached critical value per (slopes tested, df, alpha) decides every
replication.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .grid import Chromosome, SearchSpace
from .regression import REGRESSOR_SCHEMES, TestSpec
from .special import f_cdf

_MAX_REDRAWS = 10
# Bytes of augmented design per chunk of replications: bounds the working set
# for any n and nsim without changing any value.
_CHUNK_BYTES = 128 * 1024
# A design column is linearly dependent when its R diagonal is this small
# relative to the column norm (the rule of regression.ols_fit).
_RANK_TOL = 1e-10


class OracleError(RuntimeError):
    """A power estimate could not be produced."""


@dataclass(frozen=True)
class OracleConfig:
    """Monte-Carlo settings: replication count, test level, noise variance,
    the tested hypothesis, and the regressor scheme."""

    nsim: int
    alpha: float
    sigma2: float
    test: TestSpec
    scheme: str = "normal"

    def __post_init__(self) -> None:
        if self.nsim < 1:
            raise ValueError(f"nsim must be >= 1, got {self.nsim}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (self.sigma2 > 0 and np.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.scheme not in REGRESSOR_SCHEMES:
            raise ValueError(f"unknown regressor scheme {self.scheme!r}")


@lru_cache(maxsize=1024)
def critical_value(k: int, df: int, alpha: float) -> float:
    """F_{1-alpha}(k, df), by bisection on special.f_cdf to full double
    precision. The F test rejects when its statistic exceeds this value."""
    target = 1.0 - alpha
    lo, hi = 0.0, 1.0
    while f_cdf(hi, k, df) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if f_cdf(mid, k, df) < target:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class _Point:
    """What the kernel needs to know about one grid point."""

    n: int
    scheme: str
    order: list[int]  # regressor behind each slope column: untested, then tested
    beta: np.ndarray  # slopes in column order
    tested: int  # number of tested slopes, the last slope columns
    sqrt_sigma2: float
    critical: float  # F_{1-alpha}(tested, n - p - 1)

    @property
    def width(self) -> int:
        """Standard normals per replication: n for the noise, then the
        regressors (all p for normal, the measure x2 for experiment)."""
        per_row = len(self.beta) if self.scheme == "normal" else 1
        return self.n * (1 + per_row)


def _rejections(draws: np.ndarray, point: _Point) -> tuple[np.ndarray, np.ndarray]:
    """Rejection indicators for a block of replications, one row of standard
    normals each, and a mask of the rows whose fit is degenerate: a
    rank-deficient design or a zero SSE.

    Noise and regressors come from each row in the order
    regression.generate_mlr_sample draws them from its stream.
    """
    rows, n, p = len(draws), point.n, len(point.beta)
    if point.scheme == "normal":
        regressors = draws[:, n:].reshape(rows, n, p).transpose(2, 0, 1)
    else:
        x1 = np.ones(n)
        x1[: n // 2] = -1.0
        x2 = draws[:, n:]
        regressors = (x1, x2, x1 * x2)
    # One matrix per replication, stored column by column:
    # [intercept, slopes in column order, y].
    columns = np.empty((rows, p + 2, n))
    columns[:, 0] = 1.0
    for column, j in enumerate(point.order, start=1):
        columns[:, column] = regressors[j]
    np.matmul(point.beta, columns[:, 1:-1], out=columns[:, -1])
    columns[:, -1] += draws[:, :n] * point.sqrt_sigma2
    squares = np.linalg.qr(columns.transpose(0, 2, 1), mode="r") ** 2
    # Q is orthogonal, so each column of R has the norm of its design column.
    norms2 = np.sum(squares, axis=1)
    diag2 = np.diagonal(squares, axis1=1, axis2=2)
    sse = diag2[:, -1]
    degenerate = np.any(diag2[:, :-1] <= _RANK_TOL**2 * norms2[:, :-1], axis=1) | (sse == 0.0)
    rise = np.sum(squares[:, p + 1 - point.tested : p + 1, -1], axis=1)
    # F = (rise / tested) / (sse / df) > critical, kept free of division so
    # that a zero SSE needs no special case.
    return rise * (n - p - 1) > point.critical * point.tested * sse, degenerate


def estimate_power(
    chromosome: Chromosome,
    space: SearchSpace,
    config: OracleConfig,
    master_seed: int,
) -> float:
    """Fraction of nsim replications in which the test rejects.

    Deterministic in (chromosome, config, master_seed); always an exact
    multiple of 1 / nsim.

    A degenerate replication (rank-deficient design or zero SSE) is re-drawn,
    at most _MAX_REDRAWS times, from a stream keyed on (master_seed, genes,
    row, attempt); such draws are measure-zero under both schemes, so the
    retry cannot bias the estimate.
    """
    beta, n = space.decode_params(chromosome)
    p = len(beta)
    if n < p + 2:
        raise OracleError(
            f"decoded sample size {n} cannot fit {p} slopes plus intercept"
        )
    tested = config.test.tested_indices
    if max(tested) > p:
        raise ValueError(f"test indices {tested} exceed the {p} coefficients")
    if config.scheme == "experiment" and p != 3:
        raise ValueError(f"experiment scheme requires exactly 3 coefficients, got {p}")
    order = [j for j in range(p) if j + 1 not in tested] + [j - 1 for j in tested]
    point = _Point(
        n=n,
        scheme=config.scheme,
        order=order,
        beta=beta[order],
        tested=len(tested),
        sqrt_sigma2=float(np.sqrt(config.sigma2)),
        critical=critical_value(len(tested), n - p - 1, config.alpha),
    )
    chunk = max(1, _CHUNK_BYTES // (8 * n * (p + 2)))
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, *chromosome.genes)))
    rejections = 0
    for start in range(0, config.nsim, chunk):
        rows = min(chunk, config.nsim - start)
        reject, degenerate = _rejections(rng.standard_normal((rows, point.width)), point)
        for row in np.flatnonzero(degenerate):
            reject[row] = _redraw(point, (master_seed, *chromosome.genes, start + int(row)))
        rejections += int(np.count_nonzero(reject))
    return rejections / config.nsim


def _redraw(point: _Point, key: tuple[int, ...]) -> bool:
    """Rejection indicator of a degenerate replication's replacement."""
    for attempt in range(1, _MAX_REDRAWS + 1):
        rng = np.random.default_rng(np.random.SeedSequence((*key, attempt)))
        reject, degenerate = _rejections(rng.standard_normal((1, point.width)), point)
        if not degenerate[0]:
            return bool(reject[0])
    raise OracleError(
        f"replication still degenerate after {_MAX_REDRAWS} re-draws "
        f"(genes and row {key[1:]}, n={point.n})"
    )


class PowerOracle:
    """Counting front-end over estimate_power, optionally fanned out to
    worker processes.

    Because each estimate depends only on (master_seed, chromosome), results
    are identical for any worker count; total_queries is incremented at the
    submission barrier, once per chromosome.
    """

    def __init__(
        self,
        space: SearchSpace,
        config: OracleConfig,
        master_seed: int,
        worker_count: int = 1,
    ) -> None:
        if worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {worker_count}")
        if master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {master_seed}")
        self.space = space
        self.config = config
        self.master_seed = master_seed
        self.worker_count = worker_count
        self.total_queries = 0
        self._executor: ProcessPoolExecutor | None = None

    def evaluate(self, chromosome: Chromosome) -> float:
        self.total_queries += 1
        return estimate_power(chromosome, self.space, self.config, self.master_seed)

    def evaluate_many(self, chromosomes: Sequence[Chromosome]) -> list[float]:
        """Estimates in input order; one query counted per chromosome."""
        self.total_queries += len(chromosomes)
        func = partial(
            estimate_power,
            space=self.space,
            config=self.config,
            master_seed=self.master_seed,
        )
        if self.worker_count == 1 or len(chromosomes) < 2:
            return [func(c) for c in chromosomes]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.worker_count)
        chunk = max(1, len(chromosomes) // (4 * self.worker_count))
        return list(self._executor.map(func, chromosomes, chunksize=chunk))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "PowerOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
