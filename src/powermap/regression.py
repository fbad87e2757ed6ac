"""Data generation, least-squares fitting, and t/F tests for the linear model
y = X @ beta + noise with iid normal errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .special import f_cdf, student_t_cdf

REGRESSOR_SCHEMES = ("normal", "experiment")


class SingularDesignError(ValueError):
    """The design matrix is rank deficient."""


class DegenerateFitError(ValueError):
    """The fit cannot support the requested test (zero standard error or SSE)."""


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of y on a design matrix whose first column is the
    intercept."""

    coefficients: np.ndarray
    residual_variance: float
    coefficient_covariance: np.ndarray
    residual_df: int
    sse: float


@dataclass(frozen=True)
class TestSpec:
    """Which slope coefficients are tested against zero, and how.

    tested_indices are 1-based slope positions (1..p). A t test takes exactly
    one index; an F test takes any non-empty subset, with the full set giving
    the overall-regression test.
    """

    tested_indices: tuple[int, ...]
    kind: str  # "t_single" | "f_joint"

    __test__ = False  # domain type, not a pytest class

    def __post_init__(self) -> None:
        if self.kind not in ("t_single", "f_joint"):
            raise ValueError(f"unknown test kind {self.kind!r:.80}")
        # Each message names one index or a count, never the whole tuple,
        # which a config file can make millions long.
        seen: set[int] = set()
        for i in self.tested_indices:
            if i in seen:
                raise ValueError(f"tested_indices contain duplicates: {i} appears more than once")
            seen.add(i)
        idx = tuple(sorted(seen))
        object.__setattr__(self, "tested_indices", idx)
        if not idx:
            raise ValueError("tested_indices must be non-empty")
        if idx[0] < 1:
            raise ValueError(f"tested_indices are 1-based slopes, got {idx[0]}")
        if self.kind == "t_single" and len(idx) != 1:
            raise ValueError(f"t_single tests exactly one coefficient, got {len(idx)}")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    reject: bool


def ols_fit(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares via QR decomposition (not normal-equation inversion).

    X is the n x (p+1) design including the intercept column.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} rows to fit {k} columns, got {n}")
    Q, R = np.linalg.qr(X)
    col_norms = np.linalg.norm(X, axis=0)
    for j in range(k):
        if abs(R[j, j]) <= 1e-10 * col_norms[j]:
            raise SingularDesignError(
                f"design column {j} is linearly dependent "
                f"(|R[{j},{j}]| = {abs(R[j, j]):.3e})"
            )
    coef = np.linalg.solve(R, Q.T @ y)
    residuals = y - X @ coef
    sse = float(residuals @ residuals)
    df = n - k
    sigma2 = sse / df
    r_inv = np.linalg.solve(R, np.eye(k))
    cov = sigma2 * (r_inv @ r_inv.T)
    return OlsFit(
        coefficients=coef,
        residual_variance=sigma2,
        coefficient_covariance=cov,
        residual_df=df,
        sse=sse,
    )


def run_test(
    fit: OlsFit,
    spec: TestSpec,
    alpha: float,
    restricted_sse: float | None = None,
) -> TestResult:
    """t or F test of the specified slopes at level alpha.

    For f_joint the caller supplies the SSE of the restricted model (the fit
    with the tested columns removed, intercept retained).
    """
    p = len(fit.coefficients) - 1
    for i in spec.tested_indices:
        if i > p:
            raise ValueError(f"tested index {i} exceeds the {p} slopes in the fit")
    if spec.kind == "t_single":
        i = spec.tested_indices[0]
        se = float(np.sqrt(fit.coefficient_covariance[i, i]))
        if se == 0.0:
            raise DegenerateFitError(f"zero standard error for coefficient {i}")
        statistic = float(fit.coefficients[i]) / se
        p_value = 2.0 * (1.0 - student_t_cdf(abs(statistic), fit.residual_df))
    else:
        if restricted_sse is None:
            raise ValueError("f_joint requires the restricted model's SSE")
        if fit.sse == 0.0:
            raise DegenerateFitError("full model has zero SSE; F statistic undefined")
        k = len(spec.tested_indices)
        statistic = ((restricted_sse - fit.sse) / k) / (fit.sse / fit.residual_df)
        statistic = max(statistic, 0.0)  # guard float slop in nested SSEs
        p_value = 1.0 - f_cdf(statistic, k, fit.residual_df)
    return TestResult(statistic=statistic, p_value=p_value, reject=p_value < alpha)


def generate_mlr_sample(
    beta: np.ndarray,
    n: int,
    sigma2: float,
    scheme: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One simulated dataset: returns (design with intercept column, response).

    The response is built with intercept zero. Noise is drawn before the
    regressors so a given stream always splits the same way.

    Schemes:
      normal      all p regressors iid standard normal
      experiment  x1 a balanced -1/+1 condition, x2 standard normal,
                  x3 = x1 * x2 (requires p = 3)
    """
    beta = np.asarray(beta, dtype=float)
    p = len(beta)
    if n < p + 2:
        raise ValueError(f"need n >= p + 2 = {p + 2}, got n = {n}")
    if scheme not in REGRESSOR_SCHEMES:
        raise ValueError(f"unknown regressor scheme {scheme!r}")
    eps = rng.standard_normal(n) * np.sqrt(sigma2)
    if scheme == "normal":
        regressors = rng.standard_normal((n, p))
    else:
        if p != 3:
            raise ValueError(f"experiment scheme requires exactly 3 coefficients, got {p}")
        x1 = np.ones(n)
        x1[: n // 2] = -1.0
        x2 = rng.standard_normal(n)
        regressors = np.column_stack([x1, x2, x1 * x2])
    y = regressors @ beta + eps
    X = np.column_stack([np.ones(n), regressors])
    return X, y
