"""Isolation forest (Liu et al. 2008), replacing scikit-learn's
``IsolationForest`` which is unavailable offline (paper §3.1.2).

Random axis-aligned splits isolate anomalies in short paths; the
anomaly score is 2^(-E[h(x)] / c(n)) with c(n) the average unsuccessful
BST search length. ``contamination`` sets the decision threshold at the
matching quantile of the training scores, as scikit-learn does.
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import Tree, _Builder, stack_trees, tree_apply


def _c(n: float) -> float:
    """Average path length of an unsuccessful BST search over n points."""
    if n <= 1:
        return 0.0
    return 2.0 * (np.log(n - 1.0) + np.euler_gamma) - 2.0 * (n - 1.0) / n


def _grow(X: np.ndarray, rng: np.random.Generator, limit: int) -> Tree:
    """One isolation tree over the rows of ``X``, depth-first, left before
    right. A leaf's value is its path length, depth + c(size). A row goes
    left when its value is below the split; ``tree_apply`` goes left at
    ``<=``, so the stored threshold is the float just below the split."""
    out = _Builder(X)

    def grow(idx: np.ndarray, depth: int) -> int:
        if depth >= limit or idx.size <= 1:
            return out.leaf(idx, depth + _c(idx.size))
        f = int(rng.integers(0, X.shape[1]))
        col = X[idx, f]
        lo, hi = col.min(), col.max()
        if lo == hi:
            return out.leaf(idx, depth + _c(idx.size))
        split = float(rng.uniform(lo, hi))
        mask = col < split
        node = out.node(0.0)
        out.feat[node], out.thr[node] = f, np.nextafter(split, -np.inf)
        out.left[node] = grow(idx[mask], depth + 1)
        out.right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return out.tree()


class IsolationForest:
    """Fit on a float matrix; ``predict_outlier`` flags anomalous rows."""

    def __init__(
        self,
        n_trees: int = 50,
        subsample: int = 256,
        contamination: float = 0.01,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.subsample = subsample
        self.contamination = contamination
        self.seed = seed

    def fit(self, X: np.ndarray) -> "IsolationForest":
        X = np.asarray(X, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        psi = min(self.subsample, X.shape[0])
        limit = int(np.ceil(np.log2(max(psi, 2))))
        trees = []
        for _ in range(self.n_trees):
            idx = rng.choice(X.shape[0], size=psi, replace=False)
            trees.append(_grow(X[idx], rng, limit))
        self.trees_ = stack_trees(trees)
        self._psi = psi
        train_scores = self.score(X)
        # Threshold at the (1 - contamination) quantile of train scores.
        self.threshold_ = float(np.quantile(train_scores, 1.0 - self.contamination))
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); larger is more anomalous."""
        X = np.asarray(X, dtype=np.float64)
        mean_depth = tree_apply(self.trees_, X).mean(axis=0)
        return 2.0 ** (-mean_depth / max(_c(self._psi), 1e-9))

    def predict_outlier(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask of rows scoring strictly above the threshold."""
        return self.score(X) > self.threshold_
