"""NumPy implementations of the seven CleanML classifiers (§3.3).

All models are binary classifiers with a common interface::

    model = make_model("random_forest", params, seed=0)
    model.fit(X, y)            # float64 matrix, {0,1} labels
    model.predict(X) -> {0,1}

Hyper-parameter search spaces (``sample_params``) mirror the paper's
random-search protocol at a scale appropriate for the scaled-down
datasets. XGBoost is reproduced as "XGBoost-lite": Newton (second-order)
gradient boosting with L2-regularized leaf weights — the core of the
XGBoost algorithm — since the xgboost package is unavailable offline.

The four tree models share ``ml.tree``: each bins its training matrix
once per fit, and each ensemble stacks its trees into one flat ``Tree``
when the fit ends, so predicting is one ``tree_apply`` call. AdaBoost and
XGBoost-lite take each new tree's training-set predictions from the
grower (``Tree.fitted``) instead of applying the tree to the training
matrix again.
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import (
    Binner,
    fit_tree_classifier,
    fit_tree_newton,
    stack_trees,
    tree_apply,
)


class _Model:
    """Base class: subclasses implement _fit and _decision."""

    def __init__(self, **params):
        self.params = params

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_Model":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self.classes_ = np.unique(y)
        if self.classes_.size == 1:
            self._constant = int(self.classes_[0])
        else:
            self._constant = None
            self._fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self._constant is not None:
            return np.full(X.shape[0], self._constant, dtype=np.int64)
        return (self._decision(X) > 0.5).astype(np.int64)


class LogisticRegression(_Model):
    """L2-regularized logistic regression fitted with IRLS (Newton)."""

    def _fit(self, X, y):
        lam = self.params.get("C", 1.0)
        n_iter = self.params.get("n_iter", 25)
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        n, d = Xb.shape
        beta = np.zeros(d)
        reg = np.eye(d) / max(lam, 1e-6)
        reg[-1, -1] = 0.0  # do not penalize the intercept
        for _ in range(n_iter):
            z = np.clip(Xb @ beta, -30, 30)
            p = 1.0 / (1.0 + np.exp(-z))
            W = np.maximum(p * (1 - p), 1e-6)
            g = Xb.T @ (p - y) + reg @ beta
            H = (Xb * W[:, None]).T @ Xb + reg
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H, g, rcond=None)[0]
            beta -= step
            if np.abs(step).max() < 1e-8:
                break
        self.beta_ = beta

    def _decision(self, X):
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        z = np.clip(Xb @ self.beta_, -30, 30)
        return 1.0 / (1.0 + np.exp(-z))


class KNeighbors(_Model):
    """k-nearest-neighbours with Euclidean distance and majority vote."""

    def _fit(self, X, y):
        self.X_ = X
        self.y_ = y

    def _decision(self, X):
        k = min(self.params.get("k", 5), self.X_.shape[0])
        sq_train = (self.X_**2).sum(axis=1)
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], 512):
            chunk = X[start : start + 512]
            d2 = (chunk**2).sum(axis=1)[:, None] - 2 * chunk @ self.X_.T + sq_train[None, :]
            nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
            out[start : start + 512] = self.y_[nn].mean(axis=1)
        return out


class DecisionTree(_Model):
    """CART with Gini impurity on histogram-binned features."""

    def _fit(self, X, y):
        self.binner_ = Binner().fit(X)
        B = self.binner_.transform(X)
        self.tree_ = fit_tree_classifier(
            B,
            y,
            max_depth=self.params.get("max_depth", 6),
            min_leaf=self.params.get("min_leaf", 2),
        )

    def _decision(self, X):
        return tree_apply(self.tree_, self.binner_.transform(X))[0]


class RandomForest(_Model):
    """Bagged CART ensemble with per-node feature subsampling."""

    def _fit(self, X, y):
        n_trees = self.params.get("n_trees", 15)
        rng = np.random.default_rng(self.params.get("seed", 0))
        self.binner_ = Binner().fit(X)
        B = self.binner_.transform(X)
        n = X.shape[0]
        mf = max(1, int(np.sqrt(B.shape[1])))
        trees = []
        for _ in range(n_trees):
            boot = rng.integers(0, n, size=n)
            trees.append(
                fit_tree_classifier(
                    B[boot],
                    y[boot],
                    max_depth=self.params.get("max_depth", 8),
                    min_leaf=self.params.get("min_leaf", 1),
                    max_features=mf,
                    rng=rng,
                )
            )
        self.trees_ = stack_trees(trees)

    def _decision(self, X):
        return np.mean(tree_apply(self.trees_, self.binner_.transform(X)) > 0.5, axis=0)


class AdaBoost(_Model):
    """Discrete AdaBoost (SAMME, K=2) over shallow CART learners."""

    def _fit(self, X, y):
        T = self.params.get("n_estimators", 20)
        depth = self.params.get("max_depth", 2)
        self.binner_ = Binner().fit(X)
        B = self.binner_.transform(X)
        n = X.shape[0]
        w = np.full(n, 1.0 / n)
        trees, alphas = [], []
        y_pm = 2 * y - 1
        for _ in range(T):
            tree = fit_tree_classifier(B, y, w, max_depth=depth, min_leaf=1)
            pred = (tree.fitted > 0.5).astype(np.int64)
            pred_pm = 2 * pred - 1
            err = float(w[pred != y].sum())
            if err <= 1e-10:
                trees.append(tree)
                alphas.append(10.0)
                break
            if err >= 0.5:
                if not trees:
                    trees.append(tree)
                    alphas.append(1e-6)
                break
            alpha = 0.5 * np.log((1 - err) / err)
            trees.append(tree)
            alphas.append(alpha)
            w *= np.exp(-alpha * y_pm * pred_pm)
            w /= w.sum()
        self.trees_ = stack_trees(trees)
        self.alphas_ = np.array(alphas)

    def _decision(self, X):
        leaves = tree_apply(self.trees_, self.binner_.transform(X))
        score = np.zeros(X.shape[0])
        # Stage by stage, in fit order: a matrix product may reorder the sum.
        for alpha, leaf in zip(self.alphas_, leaves):
            score += alpha * (2 * (leaf > 0.5) - 1)
        return (score > 0).astype(np.float64)


class XGBoostLite(_Model):
    """Newton gradient boosting with logistic loss and L2 leaf penalty."""

    def _fit(self, X, y):
        T = self.params.get("n_rounds", 20)
        eta = self.params.get("eta", 0.3)
        lam = self.params.get("lam", 1.0)
        depth = self.params.get("max_depth", 4)
        self.binner_ = Binner().fit(X)
        B = self.binner_.transform(X)
        p0 = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.base_ = np.log(p0 / (1 - p0))
        self.eta_ = eta
        raw = np.full(X.shape[0], self.base_)
        trees = []
        for _ in range(T):
            p = 1.0 / (1.0 + np.exp(-np.clip(raw, -30, 30)))
            grad = p - y
            hess = np.maximum(p * (1 - p), 1e-6)
            tree = fit_tree_newton(B, grad, hess, max_depth=depth, lam=lam)
            trees.append(tree)
            raw += eta * tree.fitted
        self.trees_ = stack_trees(trees)

    def _decision(self, X):
        raw = np.full(X.shape[0], self.base_)
        # Round by round, as in the fit: a matrix product may reorder the sum.
        for leaf in tree_apply(self.trees_, self.binner_.transform(X)):
            raw += self.eta_ * leaf
        return 1.0 / (1.0 + np.exp(-np.clip(raw, -30, 30)))


class NaiveBayes(_Model):
    """Gaussian naive Bayes with variance smoothing."""

    def _fit(self, X, y):
        eps = self.params.get("var_smoothing", 1e-6)
        self.priors_ = {}
        self.mu_ = {}
        self.var_ = {}
        global_var = X.var(axis=0).max() if X.size else 1.0
        for cls in (0, 1):
            rows = X[y == cls]
            self.priors_[cls] = max(len(rows) / len(X), 1e-12)
            if len(rows) == 0:
                self.mu_[cls] = np.zeros(X.shape[1])
                self.var_[cls] = np.ones(X.shape[1])
            else:
                self.mu_[cls] = rows.mean(axis=0)
                self.var_[cls] = rows.var(axis=0) + eps * max(global_var, 1e-12)

    def _log_like(self, X, cls):
        mu, var = self.mu_[cls], self.var_[cls]
        return (
            -0.5 * (np.log(2 * np.pi * var)[None, :] + (X - mu) ** 2 / var).sum(axis=1)
            + np.log(self.priors_[cls])
        )

    def _decision(self, X):
        l0 = self._log_like(X, 0)
        l1 = self._log_like(X, 1)
        return (l1 > l0).astype(np.float64)


_REGISTRY = {
    "logistic_regression": LogisticRegression,
    "knn": KNeighbors,
    "decision_tree": DecisionTree,
    "random_forest": RandomForest,
    "adaboost": AdaBoost,
    "xgboost": XGBoostLite,
    "naive_bayes": NaiveBayes,
}

MODEL_NAMES = tuple(_REGISTRY)


def make_model(name: str, params: dict | None = None, seed: int = 0) -> _Model:
    """Instantiate a model by registry name with optional hyper-params."""
    cls = _REGISTRY[name]
    params = dict(params or {})
    if name == "random_forest":
        params.setdefault("seed", seed)
    return cls(**params)


def sample_params(name: str, rng: np.random.Generator) -> dict:
    """Draw one hyper-parameter configuration for random search (§4.1)."""
    if name == "logistic_regression":
        return {"C": float(10 ** rng.uniform(-2, 2))}
    if name == "knn":
        return {"k": int(rng.choice([3, 5, 7, 9, 11]))}
    if name == "decision_tree":
        return {
            "max_depth": int(rng.integers(3, 11)),
            "min_leaf": int(rng.choice([1, 2, 5])),
        }
    if name == "random_forest":
        return {
            "n_trees": int(rng.choice([8, 12, 16])),
            "max_depth": int(rng.integers(5, 10)),
        }
    if name == "adaboost":
        return {
            "n_estimators": int(rng.choice([10, 15, 20])),
            "max_depth": int(rng.choice([1, 2])),
        }
    if name == "xgboost":
        return {
            "n_rounds": int(rng.choice([10, 15, 20])),
            "eta": float(rng.choice([0.1, 0.3, 0.5])),
            "max_depth": int(rng.integers(3, 6)),
            "lam": float(rng.choice([0.5, 1.0, 2.0])),
        }
    if name == "naive_bayes":
        return {"var_smoothing": float(10 ** rng.uniform(-9, -3))}
    raise KeyError(f"unknown model {name!r}")
