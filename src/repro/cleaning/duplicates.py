"""Duplicate detection (paper §3.1.3).

Detection is key collision: two records with identical values on the
dataset's key attribute(s) refer to the same real-world entity, and
every record after the first of its key is flagged. The repair is
``cleaning.repair``'s row deletion, which keeps the first record in
the frame's row order.
"""
from __future__ import annotations

import pandas as pd


def detect_duplicates(frame: pd.DataFrame, key_cols: list[str]) -> pd.DataFrame:
    """Boolean cell mask over ``key_cols``: a record's key cells are
    flagged when an earlier record has the same key."""
    dup = frame.duplicated(subset=key_cols, keep="first")
    return pd.DataFrame(dict.fromkeys(key_cols, dup), index=frame.index)
