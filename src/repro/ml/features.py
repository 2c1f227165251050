"""Feature preprocessing mirroring CleanML §3.3 "common practice":

(1) one-hot encoding for categoricals, (2) hashed tf-idf for free text,
(3) standardization to zero mean / unit variance, (4) majority-class
downsampling for imbalanced datasets. All statistics (vocabularies,
means, idf) are fitted on the training set only and applied to test
data, matching the paper's no-leakage protocol (§4.1 step 2).
"""
from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

TEXT_DIMS = 32  # hashed tf-idf width per text column
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(str(text).lower())


def _hash_token(tok: str) -> int:
    # zlib.crc32 is stable across processes (unlike Python's hash()).
    return zlib.crc32(tok.encode("utf-8")) % TEXT_DIMS


@dataclass
class Featurizer:
    """Fit-on-train / transform-anywhere feature encoder.

    Parameters name the column roles; ``fit`` learns numeric means and
    stds, categorical vocabularies and text idf weights from the
    training frame, ``transform`` produces a dense float64 matrix.
    Unseen categories map to the all-zero one-hot block.
    """

    numeric: list[str] = field(default_factory=list)
    categorical: list[str] = field(default_factory=list)
    text: list[str] = field(default_factory=list)

    def fit(self, df: pd.DataFrame) -> "Featurizer":
        self._num_mean = {}
        self._num_std = {}
        for c in self.numeric:
            col = df[c]
            m = float(col.mean()) if col.notna().any() else 0.0
            s = float(col.std(ddof=0)) if col.notna().any() else 1.0
            self._num_mean[c] = m
            self._num_std[c] = s if s > 1e-12 else 1.0
        self._vocab = {}
        for c in self.categorical:
            vals = df[c].dropna().astype(str)
            self._vocab[c] = {v: i for i, v in enumerate(sorted(vals.unique()))}
        self._idf = {}
        n_docs = max(1, len(df))
        for c in self.text:
            dfreq = np.zeros(TEXT_DIMS, dtype=np.float64)
            for doc in df[c].fillna(""):
                seen = {_hash_token(t) for t in _tokens(doc)}
                for h in seen:
                    dfreq[h] += 1.0
            self._idf[c] = np.log((1.0 + n_docs) / (1.0 + dfreq)) + 1.0
        return self

    def transform(self, df: pd.DataFrame) -> np.ndarray:
        n = len(df)
        blocks: list[np.ndarray] = []
        for c in self.numeric:
            col = df[c].to_numpy(dtype=np.float64)
            col = np.where(np.isnan(col), self._num_mean[c], col)
            blocks.append(((col - self._num_mean[c]) / self._num_std[c])[:, None])
        for c in self.categorical:
            vocab = self._vocab[c]
            block = np.zeros((n, len(vocab)), dtype=np.float64)
            vals = df[c].astype(str).to_numpy()
            for i, v in enumerate(vals):
                j = vocab.get(v)
                if j is not None:
                    block[i, j] = 1.0
            blocks.append(block)
        for c in self.text:
            idf = self._idf[c]
            block = np.zeros((n, TEXT_DIMS), dtype=np.float64)
            for i, doc in enumerate(df[c].fillna("")):
                for t in _tokens(doc):
                    block[i, _hash_token(t)] += 1.0
            block *= idf[None, :]
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            np.divide(block, norms, out=block, where=norms > 0)
            blocks.append(block)
        if not blocks:
            return np.zeros((n, 0), dtype=np.float64)
        return np.hstack(blocks)


def downsample_majority(df: pd.DataFrame, label: str, seed: int) -> pd.DataFrame:
    """Downsample the majority class to the minority-class size.

    Sampling is without replacement (paper §3.3 (4)); deterministic in
    ``seed``. Applied to *training* data only.
    """
    counts = df[label].value_counts()
    if len(counts) < 2:
        return df
    minority = counts.idxmin()
    n_min = int(counts.min())
    rng = np.random.default_rng(seed)
    parts = [df[df[label] == minority]]
    for cls in counts.index:
        if cls == minority:
            continue
        rows = df[df[label] == cls]
        take = rng.choice(len(rows), size=min(n_min, len(rows)), replace=False)
        parts.append(rows.iloc[np.sort(take)])
    return pd.concat(parts).sort_index().reset_index(drop=True)
