"""The repairs Table 2 shares: a detector's boolean cell mask (True =
dirty cell) either deletes every row with a flagged cell, or has each
flagged cell imputed with a value fitted on the training set.
"""
from __future__ import annotations

import pandas as pd


def delete_rows(frame: pd.DataFrame, mask: pd.DataFrame) -> pd.DataFrame:
    """Drop every row with at least one flagged cell."""
    return frame[~mask.any(axis=1)].reset_index(drop=True)


def impute(frame: pd.DataFrame, mask: pd.DataFrame, fill: dict) -> pd.DataFrame:
    """Replace each flagged cell by its column's ``fill``: a scalar, or a
    Series aligned on ``frame``'s index giving each cell its own value."""
    out = frame.copy()
    for c in mask.columns:
        out[c] = out[c].mask(mask[c], fill[c])
    return out


def inlier_stats(train: pd.DataFrame, mask: pd.DataFrame) -> dict[str, dict[str, float]]:
    """``{"mean" | "median" | "mode": {column: value}}`` for each of the
    mask's columns, over the column's unflagged non-missing training
    cells, else all its non-missing cells, else 0.0."""
    stats: dict[str, dict[str, float]] = {"mean": {}, "median": {}, "mode": {}}
    for c in mask.columns:
        col = train[c]
        inlier = col[~mask[c] & col.notna()]
        if inlier.empty:
            inlier = col.dropna()
        if inlier.empty:
            stats["mean"][c] = stats["median"][c] = stats["mode"][c] = 0.0
        else:
            stats["mean"][c] = float(inlier.mean())
            stats["median"][c] = float(inlier.median())
            stats["mode"][c] = float(inlier.mode().iloc[0])
    return stats
