"""Inconsistency detection and merge (paper §3.1.4).

The paper uses OpenRefine's clustering; we implement OpenRefine's
default **fingerprint key collision** method: normalize a value
(lowercase, strip punctuation, sort tokens), group values sharing a
fingerprint, and merge every variant to the cluster's most frequent
representation. The mapping is fitted on the training column and
applied to train and test; unseen test variants are resolved through
their fingerprint.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import pandas as pd

_PUNCT = re.compile(r"[^\w\s]")


def fingerprint(value: str) -> str:
    """OpenRefine fingerprint: lowercase, strip punctuation, sort tokens."""
    toks = _PUNCT.sub(" ", str(value).lower()).split()
    return " ".join(sorted(set(toks)))


@dataclass
class MergeStats:
    """Per-column canonical representation per fingerprint cluster."""

    canonical: dict = field(default_factory=dict)  # col -> {fingerprint: value}


def fit_merge_stats(train: pd.DataFrame, cols: list[str]) -> MergeStats:
    """Cluster training values by fingerprint; canonical = most frequent
    variant (ties broken lexicographically for determinism)."""
    stats = MergeStats()
    for c in cols:
        counts = train[c].dropna().astype(str).value_counts()
        best: dict[str, tuple[int, str]] = {}
        for value, n in counts.items():
            fp = fingerprint(value)
            cur = best.get(fp)
            # Highest count wins; ties go to the lexicographically
            # smaller variant for determinism.
            if cur is None or (-int(n), value) < (-cur[0], cur[1]):
                best[fp] = (int(n), value)
        stats.canonical[c] = {fp: v for fp, (_, v) in best.items()}
    return stats


def detect_inconsistent_pandas(
    pdf: pd.DataFrame, stats: MergeStats, cols: list[str]
) -> pd.Series:
    """Row mask: value differs from its cluster's canonical form."""
    mask = pd.Series(False, index=pdf.index)
    for c in cols:
        canon = stats.canonical[c]
        vals = pdf[c].astype(str)
        mapped = vals.map(lambda v: canon.get(fingerprint(v), v))
        mask |= mapped != vals
    return mask


def merge_pandas(pdf: pd.DataFrame, stats: MergeStats, cols: list[str]) -> pd.DataFrame:
    """Replace every variant by its canonical representation."""
    out = pdf.copy()
    for c in cols:
        canon = stats.canonical[c]
        out[c] = out[c].map(
            lambda v: canon.get(fingerprint(v), v) if pd.notna(v) else v
        )
    return out
