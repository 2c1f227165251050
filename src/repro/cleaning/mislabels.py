"""Mislabel injection and detection (paper §3.1.5).

Mislabels are *injected* with known ground truth (the paper does the
same — no real dataset with labelled label-noise exists), following
García et al.'s protocol: uniform class noise (flip 5 % in each class)
or pairwise class noise (flip 5 % of one class only). Detection reads
the ground-truth column; ``cleaning.repair.impute`` flips labels back.
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


def detect_mislabels(frame: pd.DataFrame, label: str) -> tuple[pd.DataFrame, dict]:
    """Boolean cell mask over the ``label`` column, True where the label
    differs from the ground truth, and the true labels as its fill."""
    truth = frame[TRUE_LABEL]
    return (frame[label] != truth).to_frame(label), {label: truth}
