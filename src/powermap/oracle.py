"""Monte-Carlo oracle for the rejection probability at one grid point.

The estimate is a pure function of (chromosome, oracle settings, master seed).
All replications of a grid point are rows drawn in order from one generator
seeded by the master seed and the chromosome's integer coordinates, so
repeated queries agree bit-for-bit regardless of call order, worker placement,
or how the replications are chunked.

Each replication is fitted from its Gram matrix, the Gram of its design
[intercept, untested slopes, tested slopes, e] with the standard-normal noise
e in the last column. Under the normal scheme a chunk of replications is
copied into these designs and one batched matmul turns them into
(p+2) x (p+2) Gram matrices. Under the experiment scheme no design is built:
x1 is -1 on the first n // 2 rows and +1 on the rest, and x1*x2 is x2 with
that sign, so every Gram entry is a sum or a difference of the two halves'
sums of e and x2 and of their 2 x 2 cross products, taken over strided views
of the draws. A block of Gram matrices is factored by one Cholesky loop over
the p+2 columns, each step vectorised over the block; the factor R is the R
of a QR of the design. Since y = X b + s e (s^2 = sigma2), y's column of R is
R[:, slopes] @ b + s R[:, e]. So the full model's SSE is (s R_ee)^2, free of
beta, and the squared norm of the tested rows of y's column is the rise in
SSE when the tested slopes are dropped. The Gram holds the noise, not y, so
its conditioning depends on the design alone, not on beta or sigma2. A
single-slope t test is the one-slope F test (t^2 = F(1, df)), so one cached
critical value per (slopes tested, df, alpha) decides every replication.
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
# Bytes of standard normals per chunk of replications, drawn into one reused
# buffer and handed to _gram together: bounds the draws, and the design copy
# of the normal scheme, for any n without changing any value.
_CHUNK_BYTES = 128 * 1024
# Gram matrices per Cholesky block: bounds the Gram buffer for any nsim
# without changing any value.
_BLOCK_ROWS = 4096
# A slope column is degenerate when its Cholesky pivot d_j is at most
# (_PIVOT_TOL + Gram rounding) * G_jj. Here d_j / G_jj is the squared sine of
# the angle between column j and the span of the j columns before it. Each
# Gram entry sums n products and the pivot takes up to p+2 more steps, so
# rounding alone moves d_j by up to about (n + p + 2) * eps * G_jj: an exactly
# duplicated column leaves a pivot of that size, not 0, and an F built on it
# is rounding noise. The QR rule of regression.ols_fit (R_jj^2 <= 1e-20 of
# the column's squared norm) sits below that rounding and would let it
# through. _PIVOT_TOL = 1e-10 flags angles under 1e-5 radians, where a pivot
# keeps at most ~6 correct digits (n * eps / 1e-10 relative error). A drawn
# design comes that close to collinear with probability of order
# 1e-10 ** ((n - j) / 2), at most ~1e-10 per replication.
_PIVOT_TOL = 1e-10


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
    sigma: float  # noise standard deviation, sqrt(sigma2)
    critical: float  # F_{1-alpha}(tested, n - p - 1)

    @property
    def width(self) -> int:
        """Standard normals per replication: n for the noise, then the
        regressors (all p for normal, the measure x2 for experiment)."""
        per_row = len(self.beta) if self.scheme == "normal" else 1
        return self.n * (1 + per_row)


# The experiment design's columns [1, x1, x2, x1*x2, e], each as (u, a): the
# product of x1**a with variable u of (1, e, x2).
_EXPERIMENT_COLUMNS = ((0, 0), (0, 1), (2, 0), (2, 1), (1, 0))


@lru_cache(maxsize=None)
def _experiment_index(order: tuple[int, ...]) -> np.ndarray:
    """Flat indices of the experiment Gram, slopes in the given column
    order, into the (2, 3, 3, rows) signed sums of _gram: the entry of
    columns (u, a) and (v, b) is the sum of x1**(a + b) u v, found at
    [(a + b) % 2, min(u, v), max(u, v)] since x1**2 = 1."""
    columns = [_EXPERIMENT_COLUMNS[c] for c in (0, *(j + 1 for j in order), 4)]
    index = np.array(
        [[9 * ((a + b) % 2) + 3 * min(u, v) + max(u, v) for v, b in columns] for u, a in columns]
    )
    index.flags.writeable = False  # shared by every caller through the cache
    return index


def _gram(draws: np.ndarray, point: _Point) -> np.ndarray:
    """Gram matrices of the designs [intercept, slopes in column order, e],
    one per row of standard normals, as a (p+2, p+2, rows) array.

    Noise and regressors come from each row in the order
    regression.generate_mlr_sample draws them from its stream.
    """
    rows, n, p = len(draws), point.n, len(point.beta)
    if point.scheme == "experiment":
        # Each row holds e, then x2; x1 is -1 on the first n // 2 of them.
        h = n // 2
        pair = draws.reshape(rows, 2, n)
        # Per half: sums of the products of (1, e, x2), upper triangle.
        halves = np.zeros((2, 3, 3, rows))
        halves[:, 0, 0] = [[h], [n - h]]
        for side, half in enumerate((pair[:, :, :h], pair[:, :, h:])):
            halves[side, 0, 1:] = half.sum(axis=2).T
            np.matmul(
                half[:, :, None, None, :],
                half[:, None, :, :, None],
                out=halves[side, 1:, 1:].transpose(2, 0, 1)[..., None, None],
            )
        # Sums over all rows of those products times x1**0, then times x1.
        signed = np.empty_like(halves)
        np.add(halves[1], halves[0], out=signed[0])
        np.subtract(halves[1], halves[0], out=signed[1])
        return signed.reshape(18, rows)[_experiment_index(tuple(point.order))]
    regressors = draws[:, n:].reshape(rows, n, p).transpose(2, 0, 1)
    # One design per replication, stored column by column.
    columns = np.empty((rows, p + 2, n))
    columns[:, 0] = 1.0
    for column, j in enumerate(point.order, start=1):
        columns[:, column] = regressors[j]
    columns[:, -1] = draws[:, :n]
    return np.matmul(columns, columns.transpose(0, 2, 1)).transpose(1, 2, 0)


def _rejections(gram: np.ndarray, point: _Point) -> tuple[np.ndarray, np.ndarray]:
    """Rejection indicators for a (p+2, p+2, rows) block of Gram matrices,
    and a mask of the rows whose fit is degenerate: a slope column within
    _PIVOT_TOL of the span of the columns before it, or a zero SSE.

    Factors the block in place, right-looking: step j leaves row j of the
    Cholesky factor R in gram[j, j:] and the Schur complement in
    gram[j+1:, j+1:].
    """
    size, p = len(gram), len(point.beta)
    limit = (_PIVOT_TOL + (point.n + size) * np.finfo(float).eps) * np.diagonal(gram)
    degenerate = np.zeros(gram.shape[2], dtype=bool)
    for j in range(size - 1):
        bad = gram[j, j] <= limit[:, j]
        degenerate |= bad
        # A degenerate row is redrawn; any positive pivot keeps it finite.
        gram[j, j] = np.sqrt(np.where(bad, 1.0, gram[j, j]))
        gram[j, j + 1 :] /= gram[j, j]
        gram[j + 1 :, j + 1 :] -= gram[j, j + 1 :, None] * gram[j, None, j + 1 :]
    degenerate |= gram[-1, -1] <= 0.0
    sse = point.sigma**2 * gram[-1, -1]
    # Tested rows of y's column of R: R[t, t:p+1] @ b[t:] + s R[t, e], with
    # b = (0, slopes in column order).
    b = np.concatenate(([0.0], point.beta))
    rise = np.zeros(len(degenerate))
    for t in range(p + 1 - point.tested, p + 1):
        y = b[t:] @ gram[t, t : p + 1] + point.sigma * gram[t, -1]
        rise += y * y
    # F = (rise / tested) / (sse / df) > critical, kept free of division so
    # that a zero SSE needs no special case.
    return rise * (point.n - p - 1) > point.critical * point.tested * sse, degenerate


def estimate_power(
    chromosome: Chromosome,
    space: SearchSpace,
    config: OracleConfig,
    master_seed: int,
) -> float:
    """Fraction of nsim replications in which the test rejects.

    Deterministic in (chromosome, config, master_seed); always an exact
    multiple of 1 / nsim.

    A degenerate replication is re-drawn, at most _MAX_REDRAWS times, from a
    stream keyed on (master_seed, genes, row, attempt). Degenerate means a
    nearly collinear design (a slope column's Cholesky pivot at most
    _PIVOT_TOL plus Gram rounding times its G_jj) or an SSE <= 0. Exact
    collinearity and a zero SSE have probability zero under both schemes; the
    tolerance adds redraws of designs that are merely nearly collinear, so the
    retry can bias the estimate by at most their probability, ~1e-10 per
    replication (see the comment on _PIVOT_TOL).
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
        sigma=float(np.sqrt(config.sigma2)),
        critical=critical_value(len(tested), n - p - 1, config.alpha),
    )
    size = p + 2
    block = min(_BLOCK_ROWS, config.nsim)
    chunk = max(1, min(block, _CHUNK_BYTES // (8 * point.width)))
    gram = np.empty((size, size, block))
    draws = np.empty((chunk, point.width))
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, *chromosome.genes)))
    rejections = 0
    for start in range(0, config.nsim, block):
        rows = min(block, config.nsim - start)
        for lo in range(0, rows, chunk):
            hi = min(lo + chunk, rows)
            gram[..., lo:hi] = _gram(rng.standard_normal(out=draws[: hi - lo]), point)
        reject, degenerate = _rejections(gram[..., :rows], point)
        for row in np.flatnonzero(degenerate):
            reject[row] = _redraw(point, (master_seed, *chromosome.genes, start + int(row)))
        rejections += int(np.count_nonzero(reject))
    return rejections / config.nsim


def _redraw(point: _Point, key: tuple[int, ...]) -> bool:
    """Rejection indicator of a degenerate replication's replacement."""
    for attempt in range(1, _MAX_REDRAWS + 1):
        rng = np.random.default_rng(np.random.SeedSequence((*key, attempt)))
        reject, degenerate = _rejections(_gram(rng.standard_normal((1, point.width)), point), point)
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
