"""Random-search hyper-parameter tuning (paper §4.1 step 3, scaled).

The paper tunes with random search over 5-fold cross-validation; at our
scaled-down dataset sizes a stratified holdout split with a small number
of candidate draws preserves the protocol's structure (validation-score
driven selection, per-seed variation) at a fraction of the fits. The
number of candidates lives in the Protocol preset; the validation
fraction is the constant ``VAL_FRAC``.
"""
from __future__ import annotations

import numpy as np

from repro.ml.metrics import metric_fn
from repro.ml.models import make_model, sample_params

VAL_FRAC = 0.25


def _stratified_holdout(y: np.ndarray, rng: np.random.Generator):
    """Indices (train, val) of a stratified holdout split: ``VAL_FRAC``
    of each class with at least two rows goes to validation."""
    val_mask = np.zeros(y.size, dtype=bool)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        n_val = max(1, int(round(VAL_FRAC * idx.size))) if idx.size > 1 else 0
        val_mask[idx[:n_val]] = True
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


def random_search(
    name: str,
    X: np.ndarray,
    y: np.ndarray,
    *,
    seed: int,
    n_candidates: int = 2,
    metric: str = "accuracy",
) -> tuple[object, float]:
    """Tune ``name`` on (X, y); returns ``(model, val_score)``, the refit
    best model (its hyper-parameters are ``model.params``) and its
    validation score.

    Candidates are drawn with a seed-specific RNG, scored on a
    stratified holdout, and the winner is refit on the full training
    matrix — its holdout score is the validation score used by the R2/R3
    selection steps.
    """
    rng = np.random.default_rng(seed)
    score = metric_fn(metric)
    tr, va = _stratified_holdout(y, rng)
    best_params, best_val = None, -np.inf
    for _ in range(max(1, n_candidates)):
        params = sample_params(name, rng)
        if va.size == 0 or tr.size == 0:
            val = 0.0
        else:
            m = make_model(name, params, seed=seed).fit(X[tr], y[tr])
            val = score(y[va], m.predict(X[va]))
        if val > best_val:
            best_params, best_val = params, val
    model = make_model(name, best_params, seed=seed).fit(X, y)
    return model, float(best_val)
