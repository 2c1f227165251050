"""Isolation forest (Liu et al. 2008), replacing scikit-learn's
``IsolationForest`` which is unavailable offline (paper §3.1.2).

Random axis-aligned splits isolate anomalies in short paths; the
anomaly score is 2^(-E[h(x)] / c(n)) with c(n) the average unsuccessful
BST search length. ``contamination`` sets the decision threshold at the
matching quantile of the training scores, as scikit-learn does. The
trees are ``ml.tree`` trees: ``grow_tree`` grows each one with the
isolation rule of :func:`_grow`, and one ``tree_apply`` scores the forest.
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import Tree, grow_tree, stack_trees, tree_apply


def _c(n: float) -> float:
    """Average path length of an unsuccessful BST search over n points."""
    if n <= 1:
        return 0.0
    return 2.0 * (np.log(n - 1.0) + np.euler_gamma) - 2.0 * (n - 1.0) / n


def _grow(X: np.ndarray, rng: np.random.Generator, limit: int) -> Tree:
    """One isolation tree over the rows of ``X``: a leaf holds its path
    length, depth + c(size), an inner node 0. A row goes left below the
    split, so the threshold for ``<=`` routing is the float just below it."""

    def isolate(idx: np.ndarray, depth: int):
        if depth >= limit or idx.size <= 1:
            return depth + _c(idx.size), None, None
        f = int(rng.integers(0, X.shape[1]))
        col = X[idx, f]
        lo, hi = col.min(), col.max()
        if lo == hi:
            return depth + _c(idx.size), None, None
        split = float(rng.uniform(lo, hi))
        return 0.0, f, np.nextafter(split, -np.inf)

    return grow_tree(X, isolate)


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
        self.train_outlier_ = train_scores > self.threshold_
        return self

    def score(self, X: np.ndarray) -> np.ndarray:
        """Anomaly scores in (0, 1); larger is more anomalous."""
        X = np.asarray(X, dtype=np.float64)
        mean_depth = tree_apply(self.trees_, X).mean(axis=0)
        return 2.0 ** (-mean_depth / max(_c(self._psi), 1e-9))

    def predict_outlier(self, X: np.ndarray) -> np.ndarray:
        """Boolean mask of rows scoring strictly above the threshold."""
        return self.score(X) > self.threshold_
