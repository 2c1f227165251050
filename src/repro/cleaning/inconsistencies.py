"""Inconsistency detection (paper §3.1.4).

The paper uses OpenRefine's clustering; we implement OpenRefine's
default **fingerprint key collision** method: normalize a value
(lowercase, strip punctuation, sort tokens) and group values sharing a
fingerprint. A cluster's canonical form is its most frequent variant in
the training column. A train or test cell is flagged when its value
differs from its canonical form (unseen test variants are resolved
through their fingerprint), and ``cleaning.repair.impute`` merges it.
"""
from __future__ import annotations

import re

import pandas as pd

_PUNCT = re.compile(r"[^\w\s]")


def fingerprint(value: str) -> str:
    """OpenRefine fingerprint: lowercase, strip punctuation, sort tokens."""
    toks = _PUNCT.sub(" ", str(value).lower()).split()
    return " ".join(sorted(set(toks)))


def fit_canonical(train: pd.DataFrame, cols: list[str]) -> dict[str, dict[str, str]]:
    """``{column: {fingerprint: canonical value}}``: each cluster's most
    frequent training variant, ties going to the lexicographically
    smaller one for determinism."""
    canonical = {}
    for c in cols:
        counts = train[c].dropna().astype(str).value_counts()
        canonical[c] = {}
        for value, _ in sorted(counts.items(), key=lambda vn: (-vn[1], vn[0])):
            canonical[c].setdefault(fingerprint(value), value)
    return canonical


def detect_inconsistencies(frame: pd.DataFrame, canonical: dict) -> tuple[pd.DataFrame, dict]:
    """Boolean cell mask over ``canonical``'s columns, True for every
    non-missing value that differs from its canonical form, and those
    canonical values per column (the merge's fill)."""
    mask, fill = {}, {}
    for c, canon in canonical.items():
        col = frame[c]
        fill[c] = col.map(lambda v: canon.get(fingerprint(v), v))
        mask[c] = col.notna() & (fill[c] != col)
    return pd.DataFrame(mask, index=frame.index), fill
