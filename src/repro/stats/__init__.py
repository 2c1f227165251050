"""Statistics substrate for CleanML: t-tests, FDR control, flag rule.

SciPy is not available offline, so the Student-t distribution and the
Benjamini-Yekutieli procedure are implemented here in NumPy and tested
against closed-form / reference values.
"""
from repro.stats.special import betainc_reg, t_cdf, t_sf
from repro.stats.ttest import PairedTTest, paired_ttest, ttest_from_moments
from repro.stats.multiple_testing import by_adjust
from repro.stats.flags import Flag, decide_flag

__all__ = [
    "betainc_reg",
    "t_cdf",
    "t_sf",
    "PairedTTest",
    "paired_ttest",
    "ttest_from_moments",
    "by_adjust",
    "Flag",
    "decide_flag",
]
