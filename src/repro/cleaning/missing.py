"""Missing-value detection and imputation values (paper §3.1.1, Tables 2 & 5).

Detection flags empty / NaN cells. The repairs are ``cleaning.repair``'s
row deletion, or one of six imputations combining a numeric statistic
(mean / median / mode) with a categorical strategy (mode, or the
dedicated "missing" dummy category). Imputation values come from the
training set only.
"""
from __future__ import annotations

import pandas as pd

from repro.cleaning.repair import inlier_stats

DUMMY = "missing"

# Imputation method names follow the paper: "<numeric>_<categorical>",
# each numeric statistic with each categorical strategy, where "dummy"
# is the dedicated "missing" category (mean_mode, ..., mode_dummy).
MISSING_IMPUTATIONS = tuple(
    f"{num}_{cat}" for cat in ("mode", "dummy") for num in ("mean", "median", "mode")
)


def detect_missing(frame: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Boolean cell mask over ``cols``: True for every missing entry."""
    return frame[cols].isna()


def fit_imputations(
    train: pd.DataFrame, mask: pd.DataFrame, numeric: list[str], categorical: list[str]
) -> dict[str, dict]:
    """Fill values of every imputation in ``MISSING_IMPUTATIONS``, keyed
    by column, from ``train`` and its ``detect_missing`` mask."""
    num = inlier_stats(train, mask[numeric])
    modes = {}
    for c in categorical:
        col = train[c][~mask[c]]
        modes[c] = str(col.mode().iloc[0]) if not col.empty else DUMMY
    cat = {"mode": modes, "dummy": dict.fromkeys(categorical, DUMMY)}
    return {f"{n}_{k}": num[n] | cat[k] for k in cat for n in num}
