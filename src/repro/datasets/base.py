"""Dataset spec plus the shared error injectors.

Injectors plant *realistic* error patterns (paper challenge #1):
missingness can be MCAR or value-/label-dependent (MNAR), outliers can
be gross corruptions (sensor glitches) as opposed to genuine heavy
tails, duplicates are whole-record copies keyed on an entity attribute,
and inconsistencies are alternate surface representations of the same
entity value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class DatasetSpec:
    """Column roles and error profile of one benchmark dataset.

    Every ``numeric`` column has a numeric (float or int) dtype; cleaning
    and featurizing rely on that and do not coerce."""

    name: str
    label: str
    numeric: tuple[str, ...] = ()
    categorical: tuple[str, ...] = ()
    text: tuple[str, ...] = ()
    error_types: tuple[str, ...] = ()
    key_cols: tuple[str, ...] = ()  # duplicate-detection key
    inconsistent_cols: tuple[str, ...] = ()
    imbalanced: bool = False  # downsample majority + score with F1
    generate: Callable[[], pd.DataFrame] = field(default=None, compare=False)

    @property
    def metric(self) -> str:
        return "f1" if self.imbalanced else "accuracy"

    @property
    def feature_cols(self) -> tuple[str, ...]:
        return self.numeric + self.categorical + self.text


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


def bernoulli_label(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw {0,1} labels from a logistic latent score."""
    return (rng.random(z.size) < sigmoid(z)).astype(np.int64)


def inject_missing(
    pdf: pd.DataFrame,
    cols: list[str],
    rate: float,
    rng: np.random.Generator,
    *,
    mnar_driver: np.ndarray | None = None,
) -> pd.DataFrame:
    """Blank out ``rate`` of each column's cells.

    MCAR by default; with ``mnar_driver`` (a per-row score) the missing
    cells concentrate on the highest-scoring rows — a not-missing-at-
    random pattern that makes imputation biased.
    """
    out = pdf.copy()
    n = len(out)
    k = int(round(rate * n))
    for c in cols:
        if k == 0:
            continue
        if mnar_driver is None:
            rows = rng.choice(n, size=k, replace=False)
        else:
            # Sample proportionally to the driver's rank so high rows
            # are much more likely to be blanked.
            ranks = np.argsort(np.argsort(mnar_driver)) + 1.0
            p = ranks**3 / (ranks**3).sum()
            rows = rng.choice(n, size=k, replace=False, p=p)
        out.loc[out.index[rows], c] = np.nan
    return out


def inject_gross_outliers(
    pdf: pd.DataFrame,
    cols: list[str],
    rate: float,
    rng: np.random.Generator,
    *,
    scale: float = 12.0,
) -> pd.DataFrame:
    """Corrupt ``rate`` of each column's cells with gross errors
    (value replaced by mean ± scale·std spikes) — the "sensor glitch"
    pattern where cleaning recovers signal."""
    out = pdf.copy()
    n = len(out)
    k = int(round(rate * n))
    for c in cols:
        if k == 0:
            continue
        col = out[c].to_numpy(dtype=np.float64)
        mu, sd = float(np.nanmean(col)), float(np.nanstd(col)) or 1.0
        rows = rng.choice(n, size=k, replace=False)
        sign = rng.choice([-1.0, 1.0], size=k)
        spikes = mu + sign * sd * scale * (1.0 + rng.random(k))
        col[rows] = spikes
        out[c] = col
    return out


def inject_duplicates(
    pdf: pd.DataFrame,
    rate: float,
    rng: np.random.Generator,
    *,
    bias_col: str | None = None,
    bias: float = 1.0,
) -> pd.DataFrame:
    """Append copies of randomly chosen records until the duplicate
    share of the final frame is ``rate``; order is reshuffled so copies
    are interleaved like real crawled data.

    With ``bias_col``/``bias`` > 1, records where that column is 1 are
    ``bias`` times as likely to be re-listed — the class-correlated
    duplication pattern (Kolcz et al.) that makes deduplication shift
    the training class prior.
    """
    n = len(pdf)
    k = int(round(rate * n / max(1e-9, 1.0 - rate)))
    if k == 0:
        return pdf.reset_index(drop=True)
    if bias_col is None:
        rows = rng.choice(n, size=k, replace=True)
    else:
        w = np.where(pdf[bias_col].to_numpy() == 1, bias, 1.0)
        rows = rng.choice(n, size=k, replace=True, p=w / w.sum())
    dup = pdf.iloc[rows]
    out = pd.concat([pdf, dup], ignore_index=True)
    perm = rng.permutation(len(out))
    return out.iloc[perm].reset_index(drop=True)


def inject_inconsistency(
    pdf: pd.DataFrame,
    col: str,
    variants: dict[str, str],
    rate: float,
    rng: np.random.Generator,
) -> pd.DataFrame:
    """Rewrite ``rate`` of the rows whose value has an alternate surface
    form (``variants`` maps canonical -> variant), per row at random."""
    out = pdf.copy()
    mask = out[col].isin(variants) & (rng.random(len(out)) < rate)
    out.loc[mask, col] = out.loc[mask, col].map(variants)
    return out
