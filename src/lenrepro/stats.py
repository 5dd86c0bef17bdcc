"""Group-level tests: one-sample / paired t and Cohen's d.

Two-sided p-values come from the Student-t distribution function
(scipy.special.stdtr, i.e. the regularized incomplete beta function, which
is also what scipy.stats.t.sf evaluates); the test suite pins them against
an independent high-precision oracle.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import stdtr


class DegenerateTestError(ValueError):
    """Zero-variance input makes the statistic undefined."""


def _check(values, name="values"):
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise ValueError(f"{name} needs n >= 2, got n={v.size}")
    return v


def one_sample_t(values, mu0: float):
    """Returns (t, df, two-sided p) with the sample (n-1) sd."""
    v = _check(values)
    sd = v.std(ddof=1)
    if sd == 0:
        raise DegenerateTestError("zero standard deviation")
    n = v.size
    t = (v.mean() - mu0) / (sd / math.sqrt(n))
    df = n - 1
    p = 2.0 * stdtr(df, -abs(t))
    return t, df, p


def paired_t(a, b):
    """Paired-sample t-test on a - b; returns (t, df, two-sided p)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return one_sample_t(a - b, 0.0)


def cohens_d_one_sample(values, mu0: float) -> float:
    v = _check(values)
    sd = v.std(ddof=1)
    if sd == 0:
        raise DegenerateTestError("zero standard deviation")
    return float((v.mean() - mu0) / sd)


def cohens_d_paired(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return cohens_d_one_sample(a - b, 0.0)
