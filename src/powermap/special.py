"""Self-contained special functions backing the t and F distribution CDFs.

Only math.lgamma, Stirling's series and a continued fraction are needed,
keeping the statistics layer free of dependencies beyond numpy.
"""

from __future__ import annotations

import math


class NumericalError(ArithmeticError):
    """A numerical routine failed to converge."""


_MAX_ITER = 300
# The continued fraction stops once a step moves it by less than this,
# relative: a few units in the last place.
_TOL = 1e-15
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz): each
    # iteration takes the even then the odd partial numerator through one
    # update of c and d.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (_TINY if abs(d) < _TINY else d)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            # Lentz's update; a d or c within _TINY of zero is set to _TINY.
            d = 1.0 + aa * d
            d = 1.0 / (_TINY if abs(d) < _TINY else d)
            c = 1.0 + aa / c
            c = _TINY if abs(c) < _TINY else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _TOL:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x} within {_MAX_ITER} iterations"
    )


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), by Stirling's
    series; the first omitted term is under 2e-15 for z >= 20."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b). Once the larger shape, b, is 20 or more, lgamma(a + b)
    - lgamma(b) cancels to far fewer digits than either term carries
    (4.5e-13 off at a = 1/2, b = 240.5), so it is taken from Stirling's
    series as (b - 1/2) log1p(a / b) + a log(a + b) - a plus the series'
    tails."""
    a, b = min(a, b), max(a, b)
    if b < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rise = (b - 0.5) * math.log1p(a / b) + a * math.log(a + b) - a + _stirling_tail(a + b) - _stirling_tail(b)
    return math.lgamma(a) - rise


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) given x and its complement y = 1 - x, each to full relative
    precision: near x = 1 the caller's y keeps the digits that 1.0 - x
    would round away.

    Uses the continued fraction directly for x below the symmetry point
    (a + 1) / (a + b + 2) and the identity I_x(a,b) = 1 - I_y(b,a) above.
    """
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * (math.log1p(-x) if x <= y else math.log(y)) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if not (a > 0 and b > 0):
        raise ValueError(f"a and b must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return _incomplete_beta(a, b, x, 1.0 - x)


def student_t_cdf(x: float, df: int) -> float:
    """CDF of Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if x == 0.0:
        return 0.5
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, df / (df + x * x))
    return 1.0 - tail if x > 0 else tail


def f_cdf(x: float, d1: int, d2: int) -> float:
    """CDF of the F distribution with (d1, d2) degrees of freedom."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got d1={d1}, d2={d2}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if x == 0.0:
        return 0.0
    # I_z(d1/2, d2/2) at z = d1 x / (d1 x + d2), with 1 - z = d2 / (d1 x + d2)
    # formed the same way: far in the tail z rounds to 1, its complement not.
    total = d1 * x + d2
    return _incomplete_beta(d1 / 2.0, d2 / 2.0, d1 * x / total, d2 / total)
