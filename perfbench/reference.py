"""References computed apart from powermap: exact random-design power, the
k-NN fill-in in exact lattice arithmetic, and the Monte-Carlo agreement test.

Only numpy and scipy are used here; nothing is imported from powermap.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.special import roots_legendre

# Chi-square mass left outside the quadrature interval, per tail.
_TAIL = 1e-16


def _chi2_rule(df: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights with sum(w * f(x)) ~= E f(S) for S ~ chi2(df).

    Gauss-Legendre on [ppf(1e-16), isf(1e-16)] with the density folded into
    the weights; the density is smooth and vanishes at both ends, so the rule
    converges geometrically in the node count.
    """
    lo, hi = stats.chi2.ppf(_TAIL, df), stats.chi2.isf(_TAIL, df)
    t, w = roots_legendre(nodes)
    x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    return x, 0.5 * (hi - lo) * w * stats.chi2.pdf(x, df)


def _two_sided_t_power(delta: np.ndarray, df: int, alpha: float) -> np.ndarray:
    """P(|T| > t_{1-alpha/2, df}) for T noncentral t with noncentrality delta."""
    crit = stats.t.isf(alpha / 2, df)
    lower = stats.nct.cdf(-crit, df, delta)
    # scipy returns nan for far lower tails (delta above ~8 at df ~ 300-500);
    # past delta + crit = 8 the tail is below 1e-13, so it is taken as 0.
    lower = np.where(np.isnan(lower) & (delta + crit > 8.0), 0.0, lower)
    power = stats.nct.sf(crit, df, delta) + lower
    if not np.all(np.isfinite(power)):
        raise ArithmeticError(f"noncentral t tail is not finite (df={df})")
    return power


def desk_power(beta1: float, n: int, sigma2: float, alpha: float, nodes: int = 192) -> float:
    """Random-design power of the two-sided t test on slope 1 of a model with
    two iid standard-normal regressors plus an intercept.

    Given the design, the slope's t statistic is noncentral t with
    df = n - 3 and delta = beta1 * sqrt(S) / sigma, where S (the residual sum
    of squares of x1 on the intercept and x2) is chi2(n - 2). The untested
    slope drops out.
    """
    s, w = _chi2_rule(n - 2, nodes)
    delta = beta1 * np.sqrt(s / sigma2)
    return float(np.sum(w * _two_sided_t_power(delta, n - 3, alpha)))


def desk_power_normal_cdf(beta1: float, n: int, sigma2: float, alpha: float, nodes: int = 192) -> float:
    """desk_power by a second route that avoids scipy's noncentral t:
    T = (Z + beta1 sqrt(S)/sigma) / sqrt(W / df), so power is a 2-D
    expectation over S ~ chi2(n-2) and W ~ chi2(n-3) of normal tails."""
    df = n - 3
    crit = stats.t.isf(alpha / 2, df)
    s, ws = _chi2_rule(n - 2, nodes)
    v, wv = _chi2_rule(df, nodes)
    shift = beta1 * np.sqrt(s / sigma2)[:, None]
    scale = crit * np.sqrt(v / df)[None, :]
    inner = stats.norm.cdf(shift - scale) + stats.norm.cdf(-shift - scale)
    return float(ws @ inner @ wv)


def interaction_power(beta3: float, n: int, sigma2: float, alpha: float, nodes: int = 96) -> float:
    """Random-design power of the test of the interaction slope under the
    `experiment` scheme (x1 = -1 for the first floor(n/2) rows, +1 after;
    x2 standard normal; x3 = x1 * x2).

    The fit splits into one regression on x2 per condition, so the
    interaction estimate is (b_plus - b_minus) / 2 with variance
    sigma2 / 4 * (1/S_plus + 1/S_minus), where S_minus ~ chi2(floor(n/2) - 1)
    and S_plus ~ chi2(n - floor(n/2) - 1) are independent. Its t statistic is
    noncentral t with df = n - 4 and delta = 2 beta3 / (sigma sqrt(1/S_plus +
    1/S_minus)); the partial F test of one slope is this t test squared.
    """
    half = n // 2
    sm, wm = _chi2_rule(half - 1, nodes)
    sp, wp = _chi2_rule(n - half - 1, nodes)
    h = 1.0 / sp[:, None] + 1.0 / sm[None, :]
    delta = 2.0 * beta3 / np.sqrt(sigma2 * h)
    return float(wp @ _two_sided_t_power(delta, n - 4, alpha) @ wm)


# ---------------------------------------------------------------- k-NN


def lattice_weights(counts: list[int]) -> np.ndarray:
    """Integer weights w_j with sum_j w_j * dg_j**2 = L * (normalized
    distance)**2 exactly, where the normalized step of dimension j is
    1 / (count_j - 1). Single-point dimensions get weight 0."""
    steps = [c - 1 for c in counts]
    big = math.lcm(*[s * s for s in steps if s > 0]) if any(steps) else 1
    return np.array([big // (s * s) if s > 0 else 0 for s in steps], dtype=np.int64)


def grid_fill_in(
    entry_genes: np.ndarray,
    entry_powers: np.ndarray,
    query_genes: np.ndarray,
    counts: list[int],
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """k-NN prediction at grid points, in exact integer arithmetic.

    entry_genes must be in lexicographic gene order, so that the row index is
    the documented tie-break. Returns (prediction, lowest admissible
    prediction, highest admissible prediction, neighbour row indices);
    the admissible range covers every choice among entries tied exactly at
    the k-th distance.
    """
    weights = lattice_weights(counts)
    m = len(entry_genes)
    pred = np.empty(len(query_genes))
    lo = np.empty(len(query_genes))
    hi = np.empty(len(query_genes))
    chosen = np.empty((len(query_genes), k), dtype=np.int64)
    for start in range(0, len(query_genes), 512):
        q = query_genes[start : start + 512]
        d = ((q[:, None, :] - entry_genes[None, :, :]) ** 2 * weights).sum(axis=2)
        order = np.argsort(d * m + np.arange(m), axis=1)[:, :k]
        chosen[start : start + len(q)] = order
        for r, (row, top) in enumerate(zip(d, order)):
            i = start + r
            pred[i] = math.fsum(entry_powers[top]) / k
            kth = row[top[-1]]
            fixed = entry_powers[row < kth]
            tied = np.sort(entry_powers[row == kth])
            need = k - len(fixed)
            base = math.fsum(fixed)
            lo[i] = (base + math.fsum(tied[:need])) / k
            hi[i] = (base + math.fsum(tied[len(tied) - need :])) / k
    return pred, lo, hi, chosen


def off_grid_predictions(
    entry_points: np.ndarray,
    entry_powers: np.ndarray,
    queries: np.ndarray,
    spans: np.ndarray,
    k: int,
    tie_tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Admissible k-NN predictions for real-valued queries under the
    normalized Euclidean metric: (lowest, highest).

    Entries whose distance lies within tie_tol of the k-th distance may be
    swapped for one another, so a prediction is accepted anywhere between the
    lowest and highest mean over those swaps.
    """
    scaled = entry_points / spans
    lo = np.empty(len(queries))
    hi = np.empty(len(queries))
    for start in range(0, len(queries), 256):
        q = queries[start : start + 256] / spans
        d = np.sqrt(((q[:, None, :] - scaled[None, :, :]) ** 2).sum(axis=2))
        kths = np.partition(d, k - 1, axis=1)[:, k - 1]
        for r, (row, kth) in enumerate(zip(d, kths)):
            i = start + r
            fixed = entry_powers[row < kth - tie_tol]
            near = np.sort(entry_powers[np.abs(row - kth) <= tie_tol])
            need = k - len(fixed)
            base = math.fsum(fixed)
            lo[i] = (base + math.fsum(near[:need])) / k
            hi[i] = (base + math.fsum(near[len(near) - need :])) / k
    return lo, hi


# ------------------------------------------------- Monte-Carlo agreement

# |u| beyond sqrt(CAP) is left to the per-point test; capping bounds every
# term of the dispersion sum, which Bernstein's inequality needs.
CAP = 25.0


def _stabilized(values, exact, nsim):
    return 2.0 * math.sqrt(nsim) * (np.arcsin(np.sqrt(values)) - np.arcsin(np.sqrt(exact)))


def mc_agreement(values: np.ndarray, exact: np.ndarray, nsim: int, alpha: float) -> dict:
    """Test Monte-Carlo estimates k/nsim against exact power.

    Two tests, each at level alpha/2, so the false-alarm rate is at most
    alpha when the values are independent Binomial(nsim, exact)/nsim:

    * per point, the exact two-sided binomial p-value against alpha/(2m)
      (Bonferroni over the m points);
    * over all points, T = sum(min(u_i^2, CAP)) with the variance-stabilized
      deviation u_i = 2 sqrt(nsim) (asin sqrt(v_i) - asin sqrt(p_i)). Its
      null mean and variance are summed exactly over the binomial pmf of each
      point; the rejection threshold comes from Bernstein's inequality for
      independent terms bounded above by CAP.
    """
    values = np.asarray(values, dtype=float)
    exact = np.clip(np.asarray(exact, dtype=float), 0.0, 1.0)
    m = len(values)
    counts = np.rint(values * nsim)
    lattice = bool(np.all(np.abs(values * nsim - counts) < 1e-6))
    lower = stats.binom.cdf(counts, nsim, exact)
    upper = stats.binom.sf(counts - 1, nsim, exact)
    p_point = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    point_level = alpha / 2 / m
    ks = np.arange(nsim + 1)
    pmf = stats.binom.pmf(ks[None, :], nsim, exact[:, None])
    x = np.minimum(_stabilized(ks[None, :] / nsim, exact[:, None], nsim) ** 2, CAP)
    mean = (pmf * x).sum(axis=1)
    var = np.maximum((pmf * x * x).sum(axis=1) - mean * mean, 0.0)
    log_inv = math.log(2.0 / alpha)
    t = log_inv * CAP / 3 + math.sqrt((log_inv * CAP / 3) ** 2 + 2 * log_inv * var.sum())
    stat = float(np.minimum(_stabilized(values, exact, nsim) ** 2, CAP).sum())
    threshold = float(mean.sum() + t)
    se = np.sqrt(np.maximum(exact * (1 - exact), 1e-300) / nsim)
    z = (values - exact) / se
    return {
        "ok": lattice and bool(p_point.min() >= point_level) and stat <= threshold,
        "lattice": lattice,
        "points": m,
        "min_point_p": float(p_point.min()),
        "point_level": point_level,
        "dispersion": stat,
        "dispersion_threshold": threshold,
        "mean_z2": float(np.mean(z * z)),
        "max_abs_z": float(np.max(np.abs(z))),
    }


def shifted_surface_rejected(exact: np.ndarray, nsim: int, alpha: float, shift_se: float = 3.0) -> bool:
    """Self-test: the agreement check must reject the exact surface moved up
    by shift_se standard errors (clipped to [0, 1])."""
    se = np.sqrt(exact * (1 - exact) / nsim)
    shifted = np.clip(exact + shift_se * se, 0.0, 1.0)
    result = mc_agreement(shifted, exact, nsim, alpha)
    return result["dispersion"] > result["dispersion_threshold"]
