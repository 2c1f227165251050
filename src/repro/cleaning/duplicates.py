"""Duplicate detection and repair (paper §3.1.3).

Detection is key collision: two records with identical values on the
dataset's key attribute(s) refer to the same real-world entity. Repair
keeps the first record in the frame's row order and deletes the rest.
"""
from __future__ import annotations

import pandas as pd


def detect_duplicates_pandas(pdf: pd.DataFrame, key_cols: list[str]) -> pd.Series:
    """Boolean mask: True for every record after the first of its key."""
    return pdf.duplicated(subset=key_cols, keep="first")


def dedup_pandas(pdf: pd.DataFrame, key_cols: list[str]) -> pd.DataFrame:
    """Keep the first record per key, drop the rest."""
    return pdf.drop_duplicates(subset=key_cols, keep="first").reset_index(drop=True)
