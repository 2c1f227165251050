"""Mislabel injection and repair (paper §3.1.5).

Mislabels are *injected* with known ground truth (the paper does the
same — no real dataset with labelled label-noise exists), following
García et al.'s protocol: uniform class noise (flip 5 % in each class)
or pairwise class noise (flip 5 % of one class only). Repair flips the
corrupted labels back using the ground-truth column.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

NOISE_RATE = 0.05
TRUE_LABEL = "_true_label"


def inject_mislabels(
    pdf: pd.DataFrame, label: str, *, variant: str, seed: int
) -> pd.DataFrame:
    """Return a copy with flipped labels and the truth in ``_true_label``.

    variant: 'uniform' flips 5 % within each class; 'major' / 'minor'
    flip 5 % of the majority / minority class only (pairwise noise).
    """
    out = pdf.copy()
    out[TRUE_LABEL] = out[label]
    rng = np.random.default_rng(seed)
    counts = out[label].value_counts()
    if variant == "uniform":
        classes = list(counts.index)
    elif variant == "major":
        classes = [counts.idxmax()]
    elif variant == "minor":
        classes = [counts.idxmin()]
    else:
        raise KeyError(f"unknown mislabel variant {variant!r}")
    for cls in classes:
        idx = out.index[out[label] == cls].to_numpy()
        n_flip = int(round(NOISE_RATE * idx.size))
        if n_flip == 0:
            continue
        flip = rng.choice(idx, size=n_flip, replace=False)
        out.loc[flip, label] = 1 - out.loc[flip, label]
    return out


def detect_mislabels_pandas(pdf: pd.DataFrame, label: str) -> pd.Series:
    """Ground-truth detection: label differs from the truth column."""
    return pdf[label] != pdf[TRUE_LABEL]


def repair_mislabels_pandas(pdf: pd.DataFrame, label: str) -> pd.DataFrame:
    """Flip corrupted labels back to the ground truth."""
    out = pdf.copy()
    out[label] = out[TRUE_LABEL]
    return out
