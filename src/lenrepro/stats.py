"""Group-level tests: one-sample / paired t and Cohen's d.

The two-sided p of a t statistic with integer df is the regularized
incomplete beta function I_x(df/2, 1/2) at x = df / (df + t^2).  It is
evaluated by its continued fraction with the modified Lentz method
(Numerical Recipes, section 6.4), which gives the tail itself, so small p
keep their relative precision.  The test suite pins it against an
independent high-precision oracle.
"""
from __future__ import annotations

import math

import numpy as np

_TINY = 1e-300  # keeps a Lentz denominator off zero
_MAX_TERMS = 100_000


class DegenerateTestError(ValueError):
    """Zero-variance input makes the statistic undefined."""


def _gamma_ratio(n: int) -> float:
    """Gamma(n/2) / Gamma((n-1)/2) for an integer n >= 2.

    Built up from n = 2 or 3 by ratio(k + 2) = ratio(k) * k / (k - 1): its
    relative error stays below 1e-14 up to n = 2000, where the difference
    of two lgamma values loses up to 2e-12.
    """
    k, ratio = (2, 1.0 / math.sqrt(math.pi)) if n % 2 == 0 else (3, math.sqrt(math.pi) / 2)
    for k in range(k, n, 2):
        ratio *= k / (k - 1)
    return ratio


def _beta_cf(a: float, b: float, x: float) -> float:
    """I_x(a, b) * a * B(a, b) / (x^a (1-x)^b), by the continued fraction
    1 / (1 + d1 / (1 + d2 / (1 + ...))); it converges quickly for
    x < (a + 1) / (a + b + 2)."""
    f, c, d = 1.0, 1.0, 0.0
    for j in range(1, _MAX_TERMS):
        m = j // 2
        if j % 2:
            coef = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            coef = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + coef / c
        c = c if abs(c) > _TINY else _TINY
        f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta continued fraction did not converge "
                          f"for a={a}, b={b}, x={x}")


def _two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with integer df >= 1."""
    if math.isnan(t):
        return math.nan
    if t == 0:
        return 1.0
    if math.isinf(t):
        return 0.0
    a, b = df / 2.0, 0.5
    r = t * t / df
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)  # x and 1 - x, neither by subtraction
    # x^a y^b / B(a, b), with 1 / B(df/2, 1/2) = Gamma((df+1)/2) / (Gamma(df/2) sqrt(pi))
    front = _gamma_ratio(df + 1) / math.sqrt(math.pi) * math.exp(-a * math.log1p(r)) \
        * math.sqrt(y)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    # small |t|: p >= 0.08 here, so the complement loses no relative precision
    return 1.0 - front * _beta_cf(b, a, y) / b


def _sample(values):
    """The values as an array of n >= 2, and their sample (n-1) sd, which
    must not be zero."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValueError(f"values needs n >= 2, got n={v.size}")
    sd = v.std(ddof=1)
    if sd == 0:
        raise DegenerateTestError("zero standard deviation")
    return v, sd


def _differences(a, b):
    """a - b for two samples of the same shape."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return a - b


def one_sample_t(values, mu0: float):
    """Returns (t, df, two-sided p) with the sample (n-1) sd."""
    v, sd = _sample(values)
    n = v.size
    t = (v.mean() - mu0) / (sd / math.sqrt(n))
    df = n - 1
    p = _two_sided_p(t, df)
    return t, df, p


def paired_t(a, b):
    """Paired-sample t-test on a - b; returns (t, df, two-sided p)."""
    return one_sample_t(_differences(a, b), 0.0)


def cohens_d_one_sample(values, mu0: float) -> float:
    v, sd = _sample(values)
    return float((v.mean() - mu0) / sd)


def cohens_d_paired(a, b) -> float:
    return cohens_d_one_sample(_differences(a, b), 0.0)
