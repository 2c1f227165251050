"""Missing-value detection and repair (paper §3.1.1, Tables 2 & 5).

Detection finds empty / NaN entries. Repairs: row deletion, or one of
six imputations combining a numeric statistic (mean / median / mode)
with a categorical strategy (mode, or the dedicated "missing" dummy
category). Imputation statistics come from the training set only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

DUMMY = "missing"


@dataclass
class ImputeStats:
    """Per-column imputation values fitted on the (dirty) training set."""

    num_mean: dict = field(default_factory=dict)
    num_median: dict = field(default_factory=dict)
    num_mode: dict = field(default_factory=dict)
    cat_mode: dict = field(default_factory=dict)

    def numeric_value(self, col: str, method: str) -> float:
        return {"mean": self.num_mean, "median": self.num_median, "mode": self.num_mode}[
            method
        ][col]


def fit_impute_stats(
    train: pd.DataFrame, numeric: list[str], categorical: list[str]
) -> ImputeStats:
    """Compute mean/median/mode per numeric and mode per categorical."""
    stats = ImputeStats()
    for c in numeric:
        col = train[c].dropna()
        if col.empty:
            stats.num_mean[c] = stats.num_median[c] = stats.num_mode[c] = 0.0
            continue
        stats.num_mean[c] = float(col.mean())
        stats.num_median[c] = float(col.median())
        stats.num_mode[c] = float(col.mode().iloc[0])
    for c in categorical:
        col = train[c].dropna()
        stats.cat_mode[c] = str(col.mode().iloc[0]) if not col.empty else DUMMY
    return stats


def detect_missing_pandas(pdf: pd.DataFrame, cols: list[str]) -> pd.Series:
    """Boolean row mask: any missing entry among ``cols``."""
    return pdf[cols].isna().any(axis=1)


def delete_missing_pandas(pdf: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Repair by deletion: drop rows with any missing feature value."""
    return pdf[~detect_missing_pandas(pdf, cols)].reset_index(drop=True)


def impute_pandas(
    pdf: pd.DataFrame,
    stats: ImputeStats,
    *,
    numeric: list[str],
    categorical: list[str],
    num_method: str,
    cat_method: str,
) -> pd.DataFrame:
    """Repair by imputation with train-fitted statistics."""
    out = pdf.copy()
    for c in numeric:
        out[c] = out[c].fillna(stats.numeric_value(c, num_method))
    for c in categorical:
        fill = DUMMY if cat_method == "dummy" else stats.cat_mode[c]
        out[c] = out[c].where(out[c].notna(), fill)
    return out


def split_repair(repair: str) -> tuple[str, str]:
    """'mean_dummy' -> ('mean', 'dummy')."""
    num_method, cat_method = repair.split("_", 1)
    return num_method, cat_method
