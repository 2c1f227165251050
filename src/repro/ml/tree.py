"""Histogram-based CART used by every tree model in the NumPy backend.

Features are pre-binned into at most 32 quantile bins (fitted on the
training matrix). At each node one ``np.bincount`` builds the per-(feature,
bin) histograms of every candidate feature at once, and the split search
is a cumulative sum over those histograms followed by one flattened
argmin/argmax, in the spirit of XGBoost's "hist" method (Chen & Guestrin,
KDD 2016) and LightGBM (Ke et al., NeurIPS 2017). Supports:

* weighted Gini classification trees (DecisionTree, RandomForest,
  AdaBoost base learners), and
* second-order "Newton" regression trees on gradient/hessian pairs
  (the XGBoost-lite booster).

Trees are flat arrays (:class:`Tree`). :func:`grow_tree` is the one
grower, for these and for the isolation forest's trees on float64
values: it stores the nodes and routes rows, and each tree kind gives it
only a per-node split rule. An ensemble stacks its trees into one
``Tree``, and :func:`tree_apply` routes every row through every stacked
tree level by level in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_BINS = 32


class Binner:
    """Quantile binning fitted on train data; maps floats to uint8 bins."""

    def __init__(self):
        self.edges_: list[np.ndarray] = []

    def fit(self, X: np.ndarray) -> "Binner":
        qs = np.linspace(0, 1, N_BINS + 1)[1:-1]
        quantiles = np.quantile(X, qs, axis=0)
        self.edges_ = [np.unique(quantiles[:, j]) for j in range(X.shape[1])]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        B = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(self.edges_):
            B[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return B

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


@dataclass(frozen=True, eq=False)
class Tree:
    """One or more binary trees stored as flat node arrays.

    Node ``i`` sends a row left when its value of feature ``feat[i]`` is
    at most ``thr[i]``, which has the dtype of the matrix the tree was
    grown on (uint8 bins for a CART); ``feat[i] == -1`` marks a leaf (its
    children are -1) and ``value[i]`` is the node's prediction. Each
    tree's nodes are contiguous and in depth-first (pre-)order, starting
    at its entry in ``roots``. ``fitted`` holds, for a tree just grown,
    the leaf value of each training row, read off :func:`grow_tree`'s own
    partition; it is None for stacked trees.
    """

    feat: np.ndarray
    thr: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    fitted: np.ndarray | None = None


def grow_tree(M: np.ndarray, split) -> Tree:
    """Grow one tree on the rows of ``M``, depth-first, left before right.

    ``split(idx, depth)`` is the tree kind's rule for a node holding rows
    ``idx``: it returns ``(value, feat, thr)``, the node's value and its
    split, which sends a row left when ``M[row, feat] <= thr``; ``feat``
    None makes the node a leaf. Nodes are stored in the order they are
    created, so a rule's random draws follow the same order.
    """
    feat: list[int] = []
    thr: list = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    fitted = np.empty(M.shape[0], dtype=np.float64)

    def grow(idx: np.ndarray, depth: int) -> int:
        v, f, t = split(idx, depth)
        node = len(feat)
        feat.append(-1 if f is None else f)
        thr.append(0 if f is None else t)
        left.append(-1)
        right.append(-1)
        value.append(v)
        if f is None:
            fitted[idx] = v
        else:
            mask = M[idx, f] <= t
            left[node] = grow(idx[mask], depth + 1)
            right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(M.shape[0]), 0)
    return Tree(
        feat=np.array(feat, dtype=np.intp),
        thr=np.array(thr, dtype=M.dtype),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=np.float64),
        roots=np.zeros(1, dtype=np.intp),
        fitted=fitted,
    )


def _check_bins(B: np.ndarray) -> None:
    # A bin >= N_BINS would land in the next feature's histogram.
    if B.size and int(B.max()) >= N_BINS:
        raise ValueError(f"bin {int(B.max())} out of range for N_BINS={N_BINS}")


def _histograms(
    Bn: np.ndarray,
    n_bins: int,
    weights: tuple[np.ndarray, ...],
    yn: np.ndarray | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Row counts and weight sums per (candidate feature, bin) of a node,
    plus per class when labels ``yn`` are given.

    ``Bn`` holds the node's rows (in ascending row order) and its
    candidate feature columns; ``weights`` and ``yn`` are per row of
    ``Bn``. One code per cell of ``Bn``: ``j * n_bins + bin``, or
    ``(j * n_bins + bin) * 2 + y`` with labels, for column ``j``. The
    codes are read row by row, so every bucket sums its rows in ascending
    row order, exactly as a per-feature ``np.bincount`` would. Returns
    arrays of shape ``(n_features, n_bins)`` (``+ (2,)`` with labels).
    """
    n_feat = Bn.shape[1]
    codes = Bn.astype(np.intp)
    codes += np.arange(0, n_feat * n_bins, n_bins)
    shape = (n_feat, n_bins)
    if yn is not None:
        codes *= 2
        codes += yn[:, None]
        shape += (2,)
    codes = codes.ravel()
    size = math.prod(shape)
    counts = np.bincount(codes, minlength=size).reshape(shape)
    sums = [
        np.bincount(codes, weights=w.repeat(n_feat), minlength=size).reshape(shape)
        for w in weights
    ]
    return counts, sums


def _gini_best_split(
    B: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    idx: np.ndarray,
    features: np.ndarray,
    n_bins: int,
    min_leaf: int,
):
    """Best (feature, bin-threshold) by weighted Gini over ``idx`` rows.

    Returns (score, feat, thr) with score = weighted child impurity;
    feat is None when no valid split exists. Ties go to the earliest
    feature in ``features`` order, then the lowest threshold.
    """
    n = idx.size
    Bn = B.take(idx, axis=0).take(features, axis=1)
    counts, (hist,) = _histograms(Bn, n_bins, (w[idx],), y[idx])
    cum = hist.cumsum(axis=1)  # left side for thr = bin index
    c0, c1 = cum[:, :-1, 0], cum[:, :-1, 1]
    t0, t1 = cum[:, -1:, 0], cum[:, -1:, 1]  # class totals, summed in bin order
    cnt = counts.cumsum(axis=1)
    cnt_l = cnt[:, :-1, 0] + cnt[:, :-1, 1]
    wl = c0 + c1
    tot = t0 + t1
    wr = tot - wl
    valid = (cnt_l >= min_leaf) & (cnt_l <= n - min_leaf) & (wl > 0) & (wr > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = 1.0 - ((c0 / wl) ** 2 + (c1 / wl) ** 2)
        gini_r = 1.0 - (((t0 - c0) / wr) ** 2 + ((t1 - c1) / wr) ** 2)
        score = (wl * gini_l + wr * gini_r) / tot
    score[~valid] = np.inf
    k = int(score.argmin())
    if not valid.flat[k]:
        return (np.inf, None, -1)
    j, t = divmod(k, n_bins - 1)
    return (float(score.flat[k]), int(features[j]), t)


def _newton_best_split(
    B: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    idx: np.ndarray,
    n_bins: int,
    min_leaf: int,
    lam: float,
    G: float,
    H: float,
):
    """Best (feature, bin-threshold) by second-order gain over ``idx``
    rows, whose gradient and hessian sums are ``G`` and ``H``.

    Returns (gain, feat, thr); feat is None unless some gain exceeds
    1e-12. Ties go to the lowest feature, then the lowest threshold.
    """
    counts, (hg, hh) = _histograms(B.take(idx, axis=0), n_bins, (grad[idx], hess[idx]))
    GL = hg.cumsum(axis=1)[:, :-1]
    HL = hh.cumsum(axis=1)[:, :-1]
    cnt_l = counts.cumsum(axis=1)[:, :-1]
    valid = (cnt_l >= min_leaf) & (cnt_l <= idx.size - min_leaf)
    base = G * G / (H + lam)
    gain = GL**2 / (HL + lam) + (G - GL) ** 2 / (H - HL + lam) - base
    gain[~valid] = -np.inf
    k = int(gain.argmax())
    if not gain.flat[k] > 1e-12:
        return (1e-12, None, -1)
    f, t = divmod(k, n_bins - 1)
    return (float(gain.flat[k]), f, t)


def fit_tree_classifier(
    B: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
    *,
    max_depth: int = 6,
    min_leaf: int = 2,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> Tree:
    """Grow a binary-classification CART on pre-binned features.

    Leaves store the weighted probability of class 1. ``max_features``
    (with ``rng``) samples a feature subset per node for random forests,
    in :func:`grow_tree`'s node order.
    """
    _check_bins(B)
    y = np.asarray(y, dtype=np.int64)
    w = np.ones(y.size, dtype=np.float64) if w is None else np.asarray(w, np.float64)
    d = B.shape[1]

    def gini(idx: np.ndarray, depth: int):
        wb = w[idx]
        w_sum = wb.sum()
        p1 = float((wb * y[idx]).sum() / w_sum) if w_sum > 0 else 0.5
        if depth >= max_depth or idx.size < 2 * min_leaf or p1 in (0.0, 1.0):
            return p1, None, None
        if max_features is not None and max_features < d:
            features = rng.choice(d, size=max_features, replace=False)
        else:
            features = np.arange(d)
        parent = 2.0 * p1 * (1.0 - p1)
        score, feat, thr = _gini_best_split(B, y, w, idx, features, N_BINS, min_leaf)
        if feat is None or parent - score < 1e-12:
            return p1, None, None
        return p1, feat, thr

    return grow_tree(B, gini)


def fit_tree_newton(
    B: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    *,
    max_depth: int = 4,
    lam: float = 1.0,
) -> Tree:
    """Grow a regression tree with XGBoost-style second-order leaf values.

    Split gain is the standard 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam)
    - G^2/(H+lam)); leaf weight is -G/(H+lam). Each child holds at least
    5 rows.
    """
    min_leaf = 5
    _check_bins(B)

    def newton(idx: np.ndarray, depth: int):
        G = float(grad[idx].sum())
        H = float(hess[idx].sum())
        value = -G / (H + lam)
        if depth >= max_depth or idx.size < 2 * min_leaf:
            return value, None, None
        _, feat, thr = _newton_best_split(B, grad, hess, idx, N_BINS, min_leaf, lam, G, H)
        return value, feat, thr

    return grow_tree(B, newton)


def stack_trees(trees: list[Tree]) -> Tree:
    """One ``Tree`` holding the single trees ``trees`` in order, so that
    one :func:`tree_apply` serves the whole ensemble."""
    roots = np.cumsum([0] + [t.feat.size for t in trees[:-1]]).astype(np.intp)

    def moved(child: np.ndarray, offset: int) -> np.ndarray:
        return np.where(child >= 0, child + offset, -1)  # leaves keep -1

    return Tree(
        feat=np.concatenate([t.feat for t in trees]),
        thr=np.concatenate([t.thr for t in trees]),
        left=np.concatenate([moved(t.left, r) for t, r in zip(trees, roots)]),
        right=np.concatenate([moved(t.right, r) for t, r in zip(trees, roots)]),
        value=np.concatenate([t.value for t in trees]),
        roots=roots,
    )


def tree_apply(tree: Tree, B: np.ndarray) -> np.ndarray:
    """Leaf values of every row of ``B`` in every stacked tree, shape
    ``(len(tree.roots), B.shape[0])``.

    All (tree, row) pairs descend together, one level per step, until
    every pair has reached a leaf.
    """
    n, d = B.shape
    flat = B.ravel()
    node = np.repeat(tree.roots, n)
    row_start = np.tile(np.arange(0, n * d, d), tree.roots.size)  # of each pair's row in flat
    while True:
        feat = tree.feat.take(node)
        inner = np.flatnonzero(feat >= 0)
        if not inner.size:
            break
        at = node.take(inner)
        go_left = flat.take(row_start.take(inner) + feat.take(inner)) <= tree.thr.take(at)
        node[inner] = np.where(go_left, tree.left.take(at), tree.right.take(at))
    return tree.value.take(node).reshape(tree.roots.size, n)


def tree_depth(tree: Tree) -> int:
    """Depth of the deepest stacked tree (a lone leaf has depth 0)."""
    depth = np.zeros(tree.feat.size, dtype=np.intp)
    for i in np.flatnonzero(tree.feat >= 0):  # parents precede children
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return int(depth.max())
