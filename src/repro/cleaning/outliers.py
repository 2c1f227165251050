"""Numerical-outlier detection and repair (paper §3.1.2).

Detectors:

* **SD** — cell is an outlier if more than 3 standard deviations from
  the column mean,
* **IQR** — cell outside [Q1 - 1.5 IQR, Q3 + 1.5 IQR],
* **IF** — isolation forest over the numeric columns (contamination
  0.01); flags whole rows, and repairs apply to every numeric cell of a
  flagged row.

Repairs: delete flagged rows, or impute flagged cells with the mean /
median / mode of the *inlier* training values of the column. All
statistics (bounds, forest, repair values) are fitted on the training
set only.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.cleaning.isolation_forest import IsolationForest

SD_N = 3.0
IQR_K = 1.5
IF_CONTAMINATION = 0.01


@dataclass
class OutlierStats:
    """Fitted detection bounds / forest plus inlier repair values."""

    detect: str
    bounds: dict = field(default_factory=dict)  # col -> (lo, hi), SD/IQR
    forest: IsolationForest | None = None
    fill_mean: dict = field(default_factory=dict)
    fill_median: dict = field(default_factory=dict)
    fill_mode: dict = field(default_factory=dict)
    numeric: list = field(default_factory=list)

    def fill_value(self, col: str, repair: str) -> float:
        return {
            "impute_mean": self.fill_mean,
            "impute_median": self.fill_median,
            "impute_mode": self.fill_mode,
        }[repair][col]


def _numeric_matrix(pdf: pd.DataFrame, numeric: list[str]) -> np.ndarray:
    X = pdf[numeric].to_numpy(dtype=np.float64)
    if np.isnan(X).any():
        med = np.nanmedian(X, axis=0)
        X = np.where(np.isnan(X), np.where(np.isnan(med), 0.0, med), X)
    return X


def fit_outlier_stats(
    train: pd.DataFrame, numeric: list[str], detect: str, *, seed: int = 0
) -> OutlierStats:
    """Fit bounds (SD/IQR) or the isolation forest (IF) on the train set."""
    stats = OutlierStats(detect=detect, numeric=list(numeric))
    if detect in ("SD", "IQR"):
        for c in numeric:
            col = train[c].dropna()
            if col.empty:
                stats.bounds[c] = (-np.inf, np.inf)
                continue
            if detect == "SD":
                mu, sd = float(col.mean()), float(col.std(ddof=0))
                stats.bounds[c] = (mu - SD_N * sd, mu + SD_N * sd)
            else:
                q1, q3 = float(col.quantile(0.25)), float(col.quantile(0.75))
                iqr = q3 - q1
                stats.bounds[c] = (q1 - IQR_K * iqr, q3 + IQR_K * iqr)
    elif detect == "IF":
        X = _numeric_matrix(train, numeric)
        stats.forest = IsolationForest(contamination=IF_CONTAMINATION, seed=seed).fit(X)
    else:
        raise KeyError(f"unknown detector {detect!r}")
    cell_mask = detect_cells_pandas(train, stats)
    for c in numeric:
        col = train[c]
        inlier = col[~cell_mask[c] & col.notna()]
        if inlier.empty:
            inlier = col.dropna()
        if inlier.empty:
            stats.fill_mean[c] = stats.fill_median[c] = stats.fill_mode[c] = 0.0
        else:
            stats.fill_mean[c] = float(inlier.mean())
            stats.fill_median[c] = float(inlier.median())
            stats.fill_mode[c] = float(inlier.mode().iloc[0])
    return stats


def detect_cells_pandas(pdf: pd.DataFrame, stats: OutlierStats) -> pd.DataFrame:
    """Boolean mask frame over the numeric columns: True = outlier cell."""
    mask = pd.DataFrame(False, index=pdf.index, columns=stats.numeric)
    if stats.detect in ("SD", "IQR"):
        for c in stats.numeric:
            lo, hi = stats.bounds[c]
            mask[c] = (pdf[c] < lo) | (pdf[c] > hi)
    else:
        rows = stats.forest.predict_outlier(_numeric_matrix(pdf, stats.numeric))
        for c in stats.numeric:
            mask[c] = rows
    return mask


def detect_rows_pandas(pdf: pd.DataFrame, stats: OutlierStats) -> pd.Series:
    """Boolean row mask: row contains at least one outlier cell."""
    return detect_cells_pandas(pdf, stats).any(axis=1)


def repair_pandas(pdf: pd.DataFrame, stats: OutlierStats, repair: str) -> pd.DataFrame:
    """Apply one of Table 2's outlier repairs."""
    if repair == "delete":
        return pdf[~detect_rows_pandas(pdf, stats)].reset_index(drop=True)
    mask = detect_cells_pandas(pdf, stats)
    out = pdf.copy()
    for c in stats.numeric:
        out[c] = out[c].mask(mask[c], stats.fill_value(c, repair))
    return out
