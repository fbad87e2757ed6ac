"""Monte-Carlo oracle for the rejection probability at grid points.

The estimate is a pure function of (chromosome, oracle settings, master seed).
Each grid point has two generators, spawned from one seed sequence keyed on
the master seed and the chromosome's integer coordinates: one for standard
normals, one for chi-squares. Each replication takes a fixed number of values
from each, in order, so repeated queries agree bit-for-bit regardless of call
order, worker placement, or how the replications are blocked.

One call estimates all of its points in one pass, in blocks of whole points
(points x replications arrays). Only the draws are made point by point; the
rest runs once per block, with each point's sample size, slopes and critical
value broadcast over its replications. Every step after the draws is
elementwise per replication, so an estimate does not depend on which other
points share its call or its blocks.

A replication's n rows are never drawn. The F test reads a sample only
through the Cholesky factor R of the Gram of its design [intercept, untested
slopes, tested slopes, e], with the standard-normal noise e last. Since
y = X b + s e (s^2 = sigma2), y's column of R is R[:, slopes] @ b + s R[:, e]:
the full model's SSE is (s R_ee)^2, free of beta, and the squared norm of
the tested rows of y's column is the rise in SSE when the tested slopes are
dropped. A t test is the one-slope F test (t^2 = F(1, df)), so one cached
critical value per (slopes tested, df, alpha) decides every replication.

For m iid N(0, I_q) rows the sum z ~ N(0, m I_q) is independent of the
centred cross products W ~ Wishart_q(m-1, I) = A A^T, the Bartlett
decomposition (Bartlett 1933; Anderson, An Introduction to Multivariate
Statistical Analysis, sec. 7.2): A is lower triangular with
A_ii = sqrt(chi2(m-1-i)) and N(0, 1) below the diagonal, so A is W's
Cholesky factor. Under the normal scheme the n rows of (slopes in column
order, e) are one group, and R^T = [[sqrt(n), 0], [z / sqrt(n), A]] as drawn.
The tested rows of R and the e pivot lie in A's bottom-right (k+1) x (k+1)
block B for k tested slopes, so a replication draws B alone (k+1
chi-squares, k(k+1)/2 normals) and the untested slopes drop out (Sampson
1974, JASA 69:682-689): tested row t of y's column is
s B[k, t] + sum_{t <= i < k} beta_i B[i, t], and SSE = (s B[k, k])^2.

Under either scheme the noise part of B does not depend on the design: e is
independent of X, so below the factor L of X's Gram, [X, e]'s factor has the
row [w, sqrt(Q)] with w = L^-1 X^T e ~ N(0, I_{p+1}) and
Q = e^T e - |w|^2 ~ chi2(n-p-1), independent of w and of X. B is
[[C, 0], [z, sqrt(Q)]]: C, L's bottom-right k x k block, the tested slopes'
design, and z, w's last k entries.

The experiment scheme's design [1, x1, x2, x1 x2] has x1 = -1 on the first
n // 2 rows and +1 on the rest, so its Gram is a fixed function of three
numbers per half of m rows: m, sqrt(m) times the half's mean of x2, which is
N(0, 1), and the sum of squares S of x2 about that mean, chi2(m-1) and
independent of it. A replication draws those and the noise row alone
(3 chi-squares, S for each half and Q, and 2 + k normals), builds the 4 x 4
Gram of [1, slopes in column order] from the halves' sums of x2 and x2**2
(x1**2 = 1), and factors it one Cholesky step per column, each step
vectorised over the block, for C.

So both schemes share one draw routine, a point's chi-squares and standard
normals per replication, and one reading of F off B, held as the rows of
its lower triangle, each entry an array over the block. Under both the
estimand, random-design power, is that of drawn rows exactly, at O(p^2)
draws per replication however large n is.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .grid import Chromosome, SearchSpace
from .regression import REGRESSOR_SCHEMES, TestSpec
from .special import f_cdf

_MAX_REDRAWS = 10
# Replications per block of draws. A call's points share blocks: a block
# holds as many whole points as fit, or part of one point with more
# replications. The size bounds the working set for any nsim and any batch
# without changing any value: each generator is read row-major, one
# replication's values after another, and every step after the draws is
# elementwise per replication.
_BLOCK_ROWS = 1024
# Under the experiment scheme, a slope column is degenerate when its Cholesky
# pivot d_j is at most (_PIVOT_TOL + Gram rounding) * G_jj. Here d_j / G_jj is
# the squared sine of the angle between column j and the span of the j
# columns before it. A Gram entry taken from a sample's rows sums n products
# (the oracle forms each entry from the halves' drawn sums in a few
# operations, and rounds less), and the pivot takes up to p more steps, so
# rounding alone moves d_j by up to about (n + p + 2) * eps * G_jj: an
# exactly duplicated column leaves a pivot of that size, not 0, and an F
# built on it is rounding noise. The QR rule of
# regression.ols_fit (R_jj^2 <= 1e-20 of the column's squared norm) sits
# below that rounding and would let it through. _PIVOT_TOL = 1e-10 flags
# angles under 1e-5 radians, where a pivot keeps at most ~6 correct digits
# (n * eps / 1e-10 relative error). A drawn design comes that close to
# collinear with probability of order 1e-10 ** ((n - j) / 2), at most ~1e-10
# per replication.
_PIVOT_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)


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
            raise ValueError(f"unknown regressor scheme {self.scheme!r:.80}")


def _normal_quantile(p: float) -> float:
    """The standard normal quantile z with P(Z > z) = p, to within 4.5e-4
    (Abramowitz and Stegun 26.2.23); enough for a starting point."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    return z if p < 0.5 else -z


def _f_quantile_start(k: int, df: int, alpha: float, log_beta: float) -> float:
    """A start for F_{1-alpha}(k, df), within a few percent at the usual
    alphas.

    Paulson's approximation, from the Wilson-Hilferty cube roots of the
    F's two chi-squares. The upper tail's leading term,
    1 - F(x) ~ y^(df/2) / ((df/2) B(k/2, df/2)) for y = df / (df + k x),
    replaces it where that puts y below 1/4 (small df and alpha, where it
    is the closer) or where Paulson's has no positive real value. Where
    neither has one (alpha near 1), the start is 1. log_beta is
    log B(k/2, df/2).
    """
    y = math.exp((math.log(0.5 * alpha * df) + log_beta) / (0.5 * df))
    a, b, z = 2.0 / (9.0 * k), 2.0 / (9.0 * df), _normal_quantile(alpha)
    scale = (1.0 - b) ** 2 - b * z * z
    spread = (1.0 - a) ** 2 * b + (1.0 - b) ** 2 * a - a * b * z * z
    root = ((1.0 - a) * (1.0 - b) + z * math.sqrt(spread)) / scale if scale > 0 and spread >= 0 else 0.0
    if y < 0.25 or not root > 0:
        return df * (1.0 / y - 1.0) / k if y < 1 else 1.0
    return root**3


@lru_cache(maxsize=1024)
def critical_value(k: int, df: int, alpha: float) -> float:
    """F_{1-alpha}(k, df): the root of special.f_cdf(x) - (1 - alpha), to
    within f_cdf's own accuracy. The F test rejects when its statistic
    exceeds this value.

    This is not the double a bisection on f_cdf would stop at: the two
    agree to f_cdf's accuracy over the density, which at the oracle's df
    and alphas is a few units in the 14th digit.

    Newton's method on f_cdf with the F density, from _f_quantile_start:
    about 4 f_cdf calls at the oracle's df. Each call narrows a bracket
    [lo, hi] by the sign of its residual. A Newton step that would leave
    the bracket, or that is more than half the step before it, is replaced
    by a bisection (geometric, or doubling x while the bracket has no upper
    end). The solve stops after a step under sqrt(eps) of x, since the
    error left after a step is of the order of its square, or once the
    bracket is two adjacent doubles.
    """
    target = 1.0 - alpha
    h1, h2 = 0.5 * k, 0.5 * df
    log_beta = math.lgamma(h1) + math.lgamma(h2) - math.lgamma(h1 + h2)
    log_front = h1 * math.log(k / df) - log_beta  # of the density, (k / df)^(k/2) / B(k/2, df/2)
    lo, hi, x, moved = 0.0, math.inf, _f_quantile_start(k, df, alpha, log_beta), math.inf
    while True:
        residual = f_cdf(x, k, df) - target
        if residual < 0:
            lo = x
        else:
            hi = x
        density = math.exp(log_front + (h1 - 1.0) * math.log(x) - (h1 + h2) * math.log1p(k * x / df))
        new = x - residual / density if density > 0 else math.nan
        if not (lo <= new <= hi and abs(new - x) <= 0.5 * moved):
            new = 2.0 * x if hi == math.inf else math.sqrt(lo) * math.sqrt(hi) if lo > 0 else 0.5 * hi
        elif abs(new - x) <= _SQRT_EPS * x:
            return new
        if new in (lo, hi):
            return new
        moved, x = abs(new - x), new


@dataclass(frozen=True)
class _Points:
    """What the kernel needs to know about grid points that share a space and
    an oracle config: the shared fields, then the per-point ones, each with a
    trailing axis of length 1 so that it broadcasts over a point's
    replications."""

    scheme: str
    order: tuple[int, ...]  # regressor behind each slope column: untested, then tested
    tested: int  # number of tested slopes, the last slope columns
    sigma: float  # noise standard deviation, sqrt(sigma2)
    beta: np.ndarray  # (p, points, 1): slopes in column order
    groups: np.ndarray  # (groups, points, 1): rows per group, (n,) or the x1 = -1 and +1 halves
    shapes: np.ndarray  # (points, draws): shapes df / 2 of a replication's chi-squares
    normals: int  # standard normals per replication
    df: np.ndarray  # (points, 1): residual degrees of freedom n - p - 1, as floats
    threshold: np.ndarray  # (points, 1): tested * F_{1-alpha}(tested, df)

    def __getitem__(self, at: slice) -> "_Points":
        """The points at a slice of their indices."""
        return _Points(
            self.scheme, self.order, self.tested, self.sigma,
            self.beta[:, at], self.groups[:, at], self.shapes[at], self.normals,
            self.df[at], self.threshold[at],
        )


def check_fit(p: int, config: OracleConfig) -> None:
    """Raises a ValueError, its message starting with the field at fault,
    unless config's test and scheme fit a model of p slopes."""
    tested = max(config.test.tested_indices)
    if tested > p:
        raise ValueError(f"test.tested_indices: index {tested} exceeds the {p} coefficients")
    if config.scheme == "experiment" and p != 3:
        raise ValueError(f"scheme: the experiment scheme requires exactly 3 coefficients, got {p}")


def _points(chromosomes: Sequence[Chromosome], space: SearchSpace, config: OracleConfig) -> _Points:
    """The kernel's view of the grid points, decoded in one decode_many.

    The test and the scheme must fit the model (check_fit's ValueError).
    Then point by point, in order, each must be on the grid and fit p slopes
    plus intercept; the first that does not raises what it would raise
    alone: decode's GridError, then OracleError for n < p + 2.
    """
    p, counts = space.n_coefficients, space.grid_counts
    check_fit(p, config)
    tested, k = config.test.tested_indices, len(config.test.tested_indices)
    on_grid = all(
        len(c.genes) == len(counts) and all(map(operator.lt, c.genes, counts)) for c in chromosomes
    )
    values = space.decode_many([c.genes for c in chromosomes] if on_grid else [])
    sizes = values[:, -1].astype(int).tolist()
    if not on_grid or min(sizes, default=p + 2) < p + 2:
        for c in chromosomes:
            n = int(space.decode(c)[-1])  # off the grid: raises GridError
            if n < p + 2:
                raise OracleError(f"decoded sample size {n} cannot fit {p} slopes plus intercept")
    order = [j for j in range(p) if j + 1 not in tested] + [j - 1 for j in tested]
    # Each point's scalars in Python floats, the same IEEE operations as on
    # numpy's float64.
    df, threshold = np.array(
        [(n - p - 1, critical_value(k, n - p - 1, config.alpha) * k) for n in sizes]
    ).T[:, :, None]
    n = np.array(sizes)[:, None]
    if config.scheme == "normal":
        # B's diagonal, chi2(n-1-i) for i = p-k, ..., p, and its lower triangle
        groups, dfs, normals = n[None], n - 1 - np.arange(p - k, p + 1), k * (k + 1) // 2
    else:
        # per half of m rows S ~ chi2(m-1), then Q ~ chi2(n-p-1); per half
        # sqrt(m) times the mean of x2, then z's k normals
        groups = (n + [[[0]], [[1]]]) // 2
        dfs, normals = np.concatenate([*(groups - 1), n - p - 1], axis=1), 2 + k
    return _Points(
        scheme=config.scheme,
        order=tuple(order),
        tested=k,
        sigma=float(np.sqrt(config.sigma2)),
        beta=values.T[order, :, None],
        groups=groups,
        shapes=dfs / 2,
        normals=normals,
        df=df,
        threshold=threshold,
    )


def _streams(key: tuple[int, ...]) -> tuple[np.random.Generator, np.random.Generator]:
    """The normal and the chi-square generator of a seed key: the children
    SeedSequence(key).spawn(2) would give, built without the parent.

    SeedSequence reads an int as its 32-bit words, so a key of ints in
    [0, 2**32) is the uint32 array of its values, and is passed as one to
    skip the per-int conversion; any other key is passed as it is.
    """
    entropy = np.array(key, dtype=np.uint32) if 0 <= min(key) and max(key) < 2**32 else key
    return tuple(np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,))) for i in range(2))


def _draw(
    streams: Sequence[tuple[np.random.Generator, ...]], rows: int, points: _Points
) -> tuple[np.ndarray, np.ndarray]:
    """The chi-squares and the standard normals of the next rows replications
    of each point's generators, as (draws, points, rows) arrays. A chi-square
    is 2 standard_gamma(df / 2), the bits of chisquare(df)."""
    chis = np.empty((len(streams), rows, points.shapes.shape[-1]))
    normals = np.empty((len(streams), rows, points.normals))
    for j, (normal, chi) in enumerate(streams):
        chi.standard_gamma(points.shapes[j], out=chis[j])
        normal.standard_normal(out=normals[j])
    chis *= 2.0
    return chis.transpose(2, 0, 1), normals.transpose(2, 0, 1)


def _factor_rejections(block: list, points: _Points) -> tuple[np.ndarray, np.ndarray]:
    """Rejection indicators for a block of replications' tested blocks B, and
    a mask of the replications whose fit is degenerate: a zero pivot or a
    zero SSE. block holds B's lower triangle by rows: row i is B[i, 0], ...,
    B[i, i], each an array that broadcasts to (points, rows)."""
    k, beta = points.tested, points.beta[-points.tested :]
    # Tested rows of y's column of R, s B[k, t] + b_t B[t, t] + ... + b_{k-1} B[k-1, t].
    rise = 0.0
    for t in range(k):
        y = points.sigma * block[k][t]
        for i in range(t, k):
            y += beta[i] * block[i][t]
        rise += y * y
    sse = points.sigma**2 * block[k][k] ** 2
    degenerate = sse <= 0.0  # also where the noise pivot B[k, k] is 0
    for i in range(k):
        degenerate |= block[i][i] == 0.0
    # F = (rise / tested) / (sse / df) > critical, kept free of division so
    # that a zero SSE needs no special case.
    return rise * points.df > points.threshold * sse, degenerate


def _design_factor(means: np.ndarray, squares: np.ndarray, points: _Points) -> tuple[list, np.ndarray]:
    """Experiment scheme: the design block C, the top-left k x k of B, as its
    lower-triangle rows in _factor_rejections' layout, and a mask of the
    replications whose design is nearly collinear: a column's Cholesky pivot
    at most _PIVOT_TOL + (n + p + 2) eps times its G_jj.

    means and squares are (2, points, rows): per half of m rows, the x1 = -1
    half first, sqrt(m) times the mean of x2 and the sum of squares S of x2
    about that mean. A half's sums of x2 and x2**2 are sqrt(m) means and
    S + means**2. Design column c of (1, x1, x2, x1 x2) is x1**(c & 1)
    x2**(c >> 1), so Gram entry (c, d) sums x2**((c >> 1) + (d >> 1)) over
    both halves, or over the x1 = +1 half less the x1 = -1 half where
    (c ^ d) & 1, since x1**2 = 1. The Gram of [1, slopes in column order] is
    factored one right-looking Cholesky step per column, on its lower
    triangle, each step vectorised over the block; C is the tested columns'
    rows of that factor, from the first tested column on.
    """
    minus, plus = points.groups
    sums = np.sqrt(points.groups) * means
    powers = squares + means * means
    table = (
        (minus + plus, sums[1] + sums[0], powers[1] + powers[0]),
        (plus - minus, sums[1] - sums[0], powers[1] - powers[0]),
    )
    columns = (0, *(j + 1 for j in points.order))
    gram = [[table[(c ^ d) & 1][(c >> 1) + (d >> 1)] for d in columns[: i + 1]] for i, c in enumerate(columns)]
    size = len(columns)
    tolerance = _PIVOT_TOL + (minus + plus + size + 1) * _EPS  # n + p + 2, as size = p + 1
    limits = [tolerance * gram[j][j] for j in range(size)]
    collinear = np.zeros(means.shape[1:], dtype=bool)
    for j in range(size):
        bad = gram[j][j] <= limits[j]
        collinear |= bad
        # A collinear row is redrawn; any positive pivot keeps it finite.
        gram[j][j] = np.sqrt(np.where(bad, 1.0, gram[j][j]))
        for i in range(j + 1, size):
            gram[i][j] = gram[i][j] / gram[j][j]
            for t in range(j + 1, i + 1):
                gram[i][t] = gram[i][t] - gram[i][j] * gram[t][j]
    return [gram[i][size - points.tested :] for i in range(size - points.tested, size)], collinear


def _replications(
    streams: Sequence[tuple[np.random.Generator, ...]], rows: int, points: _Points
) -> tuple[np.ndarray, np.ndarray]:
    """Rejection indicators and degenerate mask, (points, rows), of the next
    rows replications. Under the normal scheme B is drawn whole: row i is i
    normals, in np.tril_indices order, then the root of a chi-square with
    n-1-(p-k)-i degrees of freedom. Under the experiment scheme the chi-squares
    are S for each half, then Q, and the normals sqrt(m) times the mean of x2
    for each half, then z: B is _design_factor's C over the noise row
    [z, sqrt(Q)]."""
    chis, normals = _draw(streams, rows, points)
    if points.scheme == "normal":
        block = [[*normals[i * (i - 1) // 2 : i * (i + 1) // 2], np.sqrt(chis[i])] for i in range(points.tested + 1)]
        collinear = False
    else:
        block, collinear = _design_factor(normals[:2], chis[:2], points)
        block.append([*normals[2:], np.sqrt(chis[2])])
    reject, degenerate = _factor_rejections(block, points)
    return reject, degenerate | collinear


def estimate_many(
    chromosomes: Sequence[Chromosome],
    space: SearchSpace,
    config: OracleConfig,
    master_seed: int,
) -> list[float]:
    """estimate_power of each chromosome, in input order, in one pass.

    The points go through the kernel together, as many whole points per
    block as fit in _BLOCK_ROWS replications (at least one); a point with
    more than _BLOCK_ROWS replications spans blocks of its own. Each point
    draws from its own generators, and everything after the draws is
    elementwise per replication, so no estimate depends on the other points
    of the call or on where the blocks split.
    """
    if not chromosomes:
        return []
    points = _points(chromosomes, space, config)
    nsim = config.nsim
    per_block = max(1, _BLOCK_ROWS // nsim)
    rejections = np.zeros(len(chromosomes), dtype=int)
    for first in range(0, len(chromosomes), per_block):
        last = min(first + per_block, len(chromosomes))
        block = points[first:last]
        streams = [_streams((master_seed, *c.genes)) for c in chromosomes[first:last]]
        for start in range(0, nsim, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, nsim - start)
            reject, degenerate = _replications(streams, rows, block)
            for column in np.flatnonzero(degenerate).tolist():
                k, row = divmod(column, rows)
                key = (master_seed, *chromosomes[first + k].genes, start + row)
                reject[k, row] = _redraw(points[first + k : first + k + 1], key)
            rejections[first:last] += reject.sum(axis=1)
    return (rejections / nsim).tolist()


def estimate_power(
    chromosome: Chromosome,
    space: SearchSpace,
    config: OracleConfig,
    master_seed: int,
) -> float:
    """Fraction of nsim replications in which the test rejects: the batch of
    one of estimate_many.

    Deterministic in (chromosome, config, master_seed); always an exact
    multiple of 1 / nsim. A replication reads its test off the block of its
    design's Cholesky factor for the tested slopes and the noise: under the
    normal scheme drawn whole, under the experiment scheme with the tested
    slopes' part factored from the Gram of the halves' drawn sums.

    A degenerate replication is re-drawn, at most _MAX_REDRAWS times, from the
    streams keyed on (master_seed, genes, row, attempt). Degenerate means an
    SSE <= 0; under the normal scheme, which forms no Gram, also a zero drawn
    pivot; under the experiment scheme also a nearly collinear design (a
    slope column's Cholesky pivot at most _PIVOT_TOL plus Gram rounding times
    its G_jj). Each of these has probability zero but the last, so the retry
    can bias an experiment estimate by at most ~1e-10 per replication (see
    the comment on _PIVOT_TOL).
    """
    return estimate_many([chromosome], space, config, master_seed)[0]


def _redraw(point: _Points, key: tuple[int, ...]) -> bool:
    """Rejection indicator of a degenerate replication's replacement; point
    holds the one point it belongs to."""
    for attempt in range(1, _MAX_REDRAWS + 1):
        reject, degenerate = _replications([_streams((*key, attempt))], 1, point)
        if not degenerate[0, 0]:
            return bool(reject[0, 0])
    raise OracleError(
        f"replication still degenerate after {_MAX_REDRAWS} re-draws "
        f"(genes and row {key[1:]}, n={int(point.groups.sum())})"
    )


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported on the first fan-out,
    so a process that never fans out never loads concurrent.futures or
    multiprocessing. PowerOracle looks this name up when it builds its pool,
    so whatever is bound to it then builds the pool."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class PowerOracle:
    """Counting front-end over estimate_many, optionally fanned out to
    worker processes in chunks of chromosomes. The pool has no more
    processes than the CPUs this process may run on; the chunks are sized
    by worker_count all the same.

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
        self._executor = None  # built on the first fan-out

    def evaluate(self, chromosome: Chromosome) -> float:
        self.total_queries += 1
        return estimate_power(chromosome, self.space, self.config, self.master_seed)

    def evaluate_many(self, chromosomes: Sequence[Chromosome]) -> list[float]:
        """Estimates in input order; one query counted per chromosome."""
        self.total_queries += len(chromosomes)
        batch = partial(
            estimate_many,
            space=self.space,
            config=self.config,
            master_seed=self.master_seed,
        )
        if self.worker_count == 1 or len(chromosomes) < 2:
            return batch(chromosomes)
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=min(self.worker_count, _usable_cpus()))
        size = max(1, len(chromosomes) // (4 * self.worker_count))
        chunks = [chromosomes[i : i + size] for i in range(0, len(chromosomes), size)]
        return [value for values in self._executor.map(batch, chunks) for value in values]

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "PowerOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
