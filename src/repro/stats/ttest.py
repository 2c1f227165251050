"""Paired-sample t-tests as used by CleanML §4.2.2.

Given n metric pairs (before_i, after_i), the differences
d_i = after_i - before_i are tested with three hypotheses at once:

* two-tailed:   H0: mu_d = 0   vs  Ha: mu_d != 0   -> p0
* upper-tailed: H0: mu_d <= 0  vs  Hb: mu_d > 0    -> p1
* lower-tailed: H0: mu_d >= 0  vs  Hc: mu_d < 0    -> p2

A "P" flag later requires p0 < alpha and p1 < alpha, i.e. cleaning
*improved* the metric; see :mod:`repro.stats.flags`.
"""
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.stats.special import t_cdf, t_sf


@dataclass(frozen=True)
class PairedTTest:
    """Result of the three paired t-tests over one set of metric pairs."""

    n: int
    mean_diff: float
    t_stat: float
    p_two: float
    p_upper: float
    p_lower: float


def ttest_from_moments(n: int, mean: float, sd: float) -> PairedTTest:
    """The three t-tests from n differences with mean ``mean`` and sample
    standard deviation ``sd`` (undefined, e.g. NaN, when n < 2).

    Degenerate cases (fewer than 2 pairs, or all differences identical)
    cannot reject anything and return p-values of 1.0 except when every
    difference is identically non-zero with zero variance, where the
    direction is certain and the corresponding one-sided p is 0.
    """
    n = int(n)
    mean = float(mean)
    if n < 2:
        return PairedTTest(n, mean, np.nan, 1.0, 1.0, 1.0)
    if sd == 0.0:
        if mean == 0.0:
            return PairedTTest(n, mean, 0.0, 1.0, 1.0, 1.0)
        # Identical non-zero differences: direction is certain.
        t = np.inf if mean > 0 else -np.inf
        return PairedTTest(
            n, mean, t, 0.0, 0.0 if mean > 0 else 1.0, 0.0 if mean < 0 else 1.0
        )
    t = mean / (sd / np.sqrt(n))
    df = n - 1
    p_upper = t_sf(t, df)
    p_lower = t_cdf(t, df)
    p_two = min(1.0, 2.0 * min(p_upper, p_lower))
    return PairedTTest(n, mean, float(t), p_two, p_upper, p_lower)


def paired_ttest(before: Sequence[float], after: Sequence[float]) -> PairedTTest:
    """Run two-, upper- and lower-tailed paired t-tests on metric pairs;
    see :func:`ttest_from_moments` for the degenerate cases."""
    b = np.asarray(before, dtype=np.float64)
    a = np.asarray(after, dtype=np.float64)
    if b.shape != a.shape:
        raise ValueError(f"shape mismatch: {b.shape} vs {a.shape}")
    d = a - b
    n = d.size
    mean = float(d.mean()) if n else 0.0
    sd = float(d.std(ddof=1)) if n >= 2 else np.nan
    return ttest_from_moments(n, mean, sd)
