"""Numerical-outlier detection and repair (paper §3.1.2).

Detectors:

* **SD** — cell is an outlier if more than 3 standard deviations from
  the column mean,
* **IQR** — cell outside [Q1 - 1.5 IQR, Q3 + 1.5 IQR],
* **IF** — isolation forest over the numeric columns (contamination
  0.01); flags whole rows, and repairs apply to every numeric cell of a
  flagged row.

Each detector is fitted on the training set only and returns a boolean
cell mask over the numeric columns; the repairs are ``cleaning.repair``'s
row deletion, or imputation with the mean / median / mode of the
column's *inlier* training values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.cleaning.isolation_forest import IsolationForest

SD_N = 3.0
IQR_K = 1.5
IF_CONTAMINATION = 0.01


@dataclass(frozen=True)
class OutlierDetector:
    """A detector fitted on the training set: per-column SD/IQR bounds,
    or the isolation forest (IF), and its mask of the training set."""

    numeric: list
    bounds: dict  # col -> (lo, hi), SD/IQR
    forest: IsolationForest | None  # IF
    train_cells: pd.DataFrame

    def cells(self, frame: pd.DataFrame) -> pd.DataFrame:
        """Boolean mask frame over the numeric columns: True = outlier cell."""
        rows = None
        if self.forest is not None:
            rows = self.forest.predict_outlier(_numeric_matrix(frame, self.numeric))
        return _mask(frame, self.numeric, self.bounds, rows)


def _mask(frame: pd.DataFrame, numeric: list, bounds: dict, rows: np.ndarray | None):
    """Cells outside their column's bounds, or all cells of IF's ``rows``."""
    if rows is None:
        flags = {c: (frame[c] < lo) | (frame[c] > hi) for c, (lo, hi) in bounds.items()}
    else:
        flags = dict.fromkeys(numeric, rows)
    return pd.DataFrame(flags, index=frame.index, columns=numeric)


def _numeric_matrix(pdf: pd.DataFrame, numeric: list[str]) -> np.ndarray:
    X = pdf[numeric].to_numpy(dtype=np.float64)
    if np.isnan(X).any():
        med = np.nanmedian(X, axis=0)
        X = np.where(np.isnan(X), np.where(np.isnan(med), 0.0, med), X)
    return X


def fit_outlier_detector(
    train: pd.DataFrame, numeric: list[str], detect: str, *, seed: int
) -> OutlierDetector:
    """Fit bounds (SD/IQR) or the isolation forest (IF, seeded by ``seed``)
    on the train set, and mask it; the IF's mask reuses the scores that
    set its threshold."""
    bounds, forest, rows = {}, None, None
    if detect in ("SD", "IQR"):
        for c in numeric:
            col = train[c].dropna()
            if col.empty:
                bounds[c] = (-np.inf, np.inf)
                continue
            if detect == "SD":
                mu, sd = float(col.mean()), float(col.std(ddof=0))
                bounds[c] = (mu - SD_N * sd, mu + SD_N * sd)
            else:
                q1, q3 = float(col.quantile(0.25)), float(col.quantile(0.75))
                iqr = q3 - q1
                bounds[c] = (q1 - IQR_K * iqr, q3 + IQR_K * iqr)
    elif detect == "IF":
        X = _numeric_matrix(train, numeric)
        forest = IsolationForest(contamination=IF_CONTAMINATION, seed=seed).fit(X)
        rows = forest.train_outlier_
    else:
        raise KeyError(f"unknown detector {detect!r}")
    return OutlierDetector(list(numeric), bounds, forest, _mask(train, numeric, bounds, rows))
