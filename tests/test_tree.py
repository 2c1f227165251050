"""Unit tests for the histogram CART substrate."""
import numpy as np
import pytest

from repro.cleaning import isolation_forest
from repro.ml.tree import (
    N_BINS,
    Binner,
    Tree,
    _gini_best_split,
    _newton_best_split,
    fit_tree_classifier,
    fit_tree_newton,
    stack_trees,
    tree_apply,
    tree_depth,
)

NODE_ARRAYS = ("feat", "thr", "left", "right", "value", "roots")


@pytest.fixture
def blobs():
    rng = np.random.default_rng(0)
    n = 400
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] + 0.5 * X[:, 2] > 0).astype(np.int64)
    return X, y


def same_tree(a: Tree, b: Tree) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in NODE_ARRAYS)


def leaf_of(tree: Tree, B: np.ndarray) -> np.ndarray:
    """Leaf node reached by each row, walking one row at a time."""
    out = np.empty(B.shape[0], dtype=np.intp)
    for r in range(B.shape[0]):
        i = tree.roots[0]
        while tree.feat[i] >= 0:
            i = tree.left[i] if B[r, tree.feat[i]] <= tree.thr[i] else tree.right[i]
        out[r] = i
    return out


def flat_tree(nodes) -> Tree:
    """A one-tree ``Tree`` from (feat, thr, left, right, value) rows."""
    cols = list(zip(*nodes))
    return Tree(
        feat=np.array(cols[0], dtype=np.intp),
        thr=np.array(cols[1], dtype=np.uint8),
        left=np.array(cols[2], dtype=np.intp),
        right=np.array(cols[3], dtype=np.intp),
        value=np.array(cols[4], dtype=np.float64),
        roots=np.zeros(1, dtype=np.intp),
    )


class TestBinner:
    def test_bins_within_range(self, blobs):
        X, _ = blobs
        B = Binner().fit_transform(X)
        assert B.dtype == np.uint8
        assert B.max() < 32

    def test_monotone_binning(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        B = Binner().fit_transform(X)
        assert np.all(np.diff(B[:, 0].astype(int)) >= 0)

    def test_constant_column(self):
        X = np.ones((50, 1))
        B = Binner().fit_transform(X)
        assert np.all(B == B[0, 0])

    def test_transform_unseen_values(self):
        binner = Binner().fit(np.linspace(0, 1, 100).reshape(-1, 1))
        B = binner.transform(np.array([[-10.0], [10.0]]))
        assert B[0, 0] == 0
        assert B[1, 0] == B.max()

    def test_edges_match_per_column_quantiles(self):
        rng = np.random.default_rng(3)
        qs = np.linspace(0, 1, 33)[1:-1]
        for _ in range(50):
            n, d = int(rng.integers(1, 300)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
            X[:, 0] = np.round(X[:, 0])  # tied values
            edges = Binner().fit(X).edges_
            for j in range(d):
                np.testing.assert_array_equal(edges[j], np.unique(np.quantile(X[:, j], qs)))


class TestClassifierTree:
    def test_fits_separable(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        tree = fit_tree_classifier(B, y, max_depth=6)
        pred = (tree_apply(tree, B)[0] > 0.5).astype(int)
        assert (pred == y).mean() > 0.9

    def test_depth_limit(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        tree = fit_tree_classifier(B, y, max_depth=2)
        assert tree_depth(tree) <= 2

    def test_pure_node_is_leaf(self):
        B = np.zeros((20, 2), dtype=np.uint8)
        y = np.ones(20, dtype=np.int64)
        tree = fit_tree_classifier(B, y)
        assert tree.feat.tolist() == [-1] and tree.value[0] == 1.0

    def test_sample_weights_steer_split(self):
        # Two candidate splits; weights make the second feature decisive.
        rng = np.random.default_rng(1)
        X = rng.random((200, 2))
        y = (X[:, 1] > 0.5).astype(np.int64)
        w = np.ones(200)
        B = Binner().fit_transform(X)
        tree = fit_tree_classifier(B, y, w, max_depth=1)
        assert tree.feat[0] == 1

    def test_min_leaf_respected(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        tree = fit_tree_classifier(B, y, max_depth=10, min_leaf=50)
        _, sizes = np.unique(leaf_of(tree, B), return_counts=True)
        assert sizes.min() >= 50

    def test_deterministic(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        t1 = fit_tree_classifier(B, y)
        t2 = fit_tree_classifier(B, y)
        assert same_tree(t1, t2)

    def test_feature_subsample_uses_rng(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        t1 = fit_tree_classifier(
            B, y, max_features=2, rng=np.random.default_rng(0)
        )
        t2 = fit_tree_classifier(
            B, y, max_features=2, rng=np.random.default_rng(42)
        )
        assert not same_tree(t1, t2) or tree_depth(t1) == 0

    def test_rejects_bins_beyond_n_bins(self):
        B = np.full((10, 2), N_BINS, dtype=np.uint8)
        with pytest.raises(ValueError):
            fit_tree_classifier(B, np.arange(10) % 2)


class TestNewtonTree:
    def test_reduces_logloss(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        p = np.full(y.size, 0.5)
        grad = p - y
        hess = p * (1 - p)
        tree = fit_tree_newton(B, grad, hess, max_depth=3)
        raw = tree_apply(tree, B)[0]
        # Moving along the Newton step must reduce logloss.
        def logloss(f):
            q = 1 / (1 + np.exp(-f))
            return -(y * np.log(q + 1e-12) + (1 - y) * np.log(1 - q + 1e-12)).mean()

        assert logloss(raw) < logloss(np.zeros_like(raw))

    def test_leaf_value_formula(self):
        # Single leaf: value must equal -G/(H+lam).
        B = np.zeros((10, 1), dtype=np.uint8)
        grad = np.full(10, 0.3)
        hess = np.full(10, 0.25)
        tree = fit_tree_newton(B, grad, hess, max_depth=3, lam=1.0)
        assert tree.feat.tolist() == [-1]
        assert tree.value[0] == pytest.approx(-3.0 / 3.5)

    def test_depth_limit(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        grad = np.random.default_rng(0).normal(size=y.size)
        tree = fit_tree_newton(B, grad, np.ones(y.size), max_depth=2)
        assert tree_depth(tree) <= 2


class TestApply:
    def test_single_leaf(self):
        tree = flat_tree([(-1, 0, -1, -1, 0.7)])
        out = tree_apply(tree, np.zeros((5, 3), dtype=np.uint8))
        assert out.shape == (1, 5)
        assert np.allclose(out, 0.7)

    def test_routing(self):
        tree = flat_tree([
            (0, 2, 1, 2, 0.5),
            (-1, 0, -1, -1, 0.0),
            (-1, 0, -1, -1, 1.0),
        ])
        B = np.array([[0], [2], [3], [10]], dtype=np.uint8)
        assert tree_apply(tree, B)[0].tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_stacked_apply_equals_each_tree(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        rng = np.random.default_rng(4)
        trees = [fit_tree_classifier(B, y, max_depth=d, max_features=2, rng=rng) for d in (0, 1, 3, 6)]
        trees.append(fit_tree_newton(B, rng.normal(size=y.size), np.ones(y.size), max_depth=4))
        stacked = stack_trees(trees)
        assert stacked.thr.dtype == np.uint8  # thresholds take the bins' dtype
        assert stacked.roots.tolist() == np.cumsum([0] + [t.feat.size for t in trees[:-1]]).tolist()
        assert tree_depth(stacked) == max(tree_depth(t) for t in trees)
        Bt = Binner().fit(X).transform(rng.normal(size=(150, 5)))
        expected = np.vstack([tree_apply(t, Bt) for t in trees])
        np.testing.assert_array_equal(tree_apply(stacked, Bt), expected)
        assert tree_apply(stacked, Bt[:0]).shape == (len(trees), 0)


class TestFitted:
    """The grower's per-row leaf values equal applying the tree to the
    training bins, so boosting may use them in place of an apply."""

    def test_classifier(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        rng = np.random.default_rng(5)
        w = np.exp(rng.normal(size=y.size))
        for kwargs in ({}, {"w": w / w.sum(), "min_leaf": 1}, {"max_features": 2, "rng": rng}):
            tree = fit_tree_classifier(B, y, max_depth=5, **kwargs)
            np.testing.assert_array_equal(tree.fitted, tree_apply(tree, B)[0])

    def test_newton(self, blobs):
        X, _ = blobs
        B = Binner().fit_transform(X)
        rng = np.random.default_rng(6)
        tree = fit_tree_newton(B, rng.normal(size=B.shape[0]), rng.random(B.shape[0]), max_depth=4)
        np.testing.assert_array_equal(tree.fitted, tree_apply(tree, B)[0])

    def test_isolation_tree_on_floats(self):
        # Rounded values tie, so some nodes hold one repeated value and
        # stop early; thresholds are float64, not bins.
        rng = np.random.default_rng(7)
        X = np.round(rng.normal(size=(300, 3)), 1)
        tree = isolation_forest._grow(X, rng, limit=12)
        assert tree.thr.dtype == np.float64 and (tree.feat >= 0).sum() > 10
        np.testing.assert_array_equal(tree.fitted, tree_apply(tree, X)[0])

    def test_stacked_trees_drop_fitted(self, blobs):
        X, y = blobs
        B = Binner().fit_transform(X)
        stacked = stack_trees([fit_tree_classifier(B, y, max_depth=2)])
        assert stacked.fitted is None


# Reference split finders: the per-feature loops the vectorized kernels
# replaced. The kernels must pick the same split with the same score.


def loop_gini_best_split(B, y, w, idx, features, n_bins, min_leaf):
    yb = y[idx]
    wb = w[idx]
    n = idx.size
    best = (np.inf, None, -1)
    for f in features:
        code = B[idx, f].astype(np.int64) * 2 + yb
        hist = np.bincount(code, weights=wb, minlength=n_bins * 2).reshape(n_bins, 2)
        cnt = np.bincount(B[idx, f].astype(np.int64), minlength=n_bins)
        cum = np.cumsum(hist, axis=0)[:-1]
        cnt_l = np.cumsum(cnt)[:-1]
        tot = hist.sum(axis=0)
        wl = cum.sum(axis=1)
        wr = tot.sum() - wl
        valid = (cnt_l >= min_leaf) & ((n - cnt_l) >= min_leaf) & (wl > 0) & (wr > 0)
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_l = 1.0 - ((cum / wl[:, None]) ** 2).sum(axis=1)
            right = tot[None, :] - cum
            gini_r = 1.0 - ((right / wr[:, None]) ** 2).sum(axis=1)
            score = (wl * gini_l + wr * gini_r) / tot.sum()
        score = np.where(valid, score, np.inf)
        t = int(np.argmin(score))
        if score[t] < best[0]:
            best = (float(score[t]), int(f), t)
    return best


def loop_newton_best_split(B, grad, hess, idx, n_bins, min_leaf, lam):
    G = float(grad[idx].sum())
    H = float(hess[idx].sum())
    best = (1e-12, None, -1)
    base = G * G / (H + lam)
    for f in range(B.shape[1]):
        code = B[idx, f].astype(np.int64)
        hg = np.bincount(code, weights=grad[idx], minlength=n_bins)
        hh = np.bincount(code, weights=hess[idx], minlength=n_bins)
        cnt = np.bincount(code, minlength=n_bins)
        GL = np.cumsum(hg)[:-1]
        HL = np.cumsum(hh)[:-1]
        cnt_l = np.cumsum(cnt)[:-1]
        valid = (cnt_l >= min_leaf) & ((idx.size - cnt_l) >= min_leaf)
        if not valid.any():
            continue
        gain = GL**2 / (HL + lam) + (G - GL) ** 2 / (H - HL + lam) - base
        gain = np.where(valid, gain, -np.inf)
        t = int(np.argmax(gain))
        if gain[t] > best[0]:
            best = (float(gain[t]), int(f), t)
    return best, G, H


def random_node(rng):
    """Binned matrix and a node's rows, with tied bins and duplicate
    columns so that ties between thresholds and features occur."""
    n_bins = int(rng.choice([2, 4, 32]))
    n, d = int(rng.integers(2, 250)), int(rng.integers(1, 7))
    levels = int(rng.integers(1, n_bins + 1))
    B = rng.integers(0, levels, size=(n, d)).astype(np.uint8)
    if d > 1 and rng.random() < 0.4:
        B[:, int(rng.integers(1, d))] = B[:, 0]
    idx = np.flatnonzero(rng.random(n) < rng.uniform(0.3, 1.0))
    if idx.size == 0:
        idx = np.arange(n)
    min_leaf = int(rng.choice([1, 2, 5, max(1, idx.size // 2), idx.size, idx.size + 1]))
    return B, idx, n_bins, min_leaf


def adaboost_weights(rng, n):
    w = np.full(n, 1.0 / n)
    for _ in range(int(rng.integers(0, 6))):
        w *= np.exp(rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0], size=n))
        w /= w.sum()
    return w


class TestVectorizedSplitsMatchLoops:
    def test_gini(self):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(600):
            B, idx, n_bins, min_leaf = random_node(rng)
            n, d = B.shape
            y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
            k = int(rng.integers(1, d + 1))
            features = rng.choice(d, size=k, replace=False)
            w = np.ones(n) if rng.random() < 0.4 else adaboost_weights(rng, n)
            want = loop_gini_best_split(B, y, w, idx, features, n_bins, min_leaf)
            got = _gini_best_split(B, y, w, idx, features, n_bins, min_leaf)
            assert got == want
            found += want[1] is not None
        assert found > 200  # a good share of draws have a valid split

    def test_newton(self):
        rng = np.random.default_rng(12)
        found = 0
        for _ in range(600):
            B, idx, n_bins, min_leaf = random_node(rng)
            n = B.shape[0]
            if rng.random() < 0.3:
                grad = rng.choice([-0.5, 0.5], size=n)  # tied gains
            else:
                grad = rng.normal(size=n)
            hess = np.maximum(rng.random(n) * 0.25, 1e-6)
            lam = float(rng.choice([0.5, 1.0, 2.0]))
            want, G, H = loop_newton_best_split(B, grad, hess, idx, n_bins, min_leaf, lam)
            got = _newton_best_split(B, grad, hess, idx, n_bins, min_leaf, lam, G, H)
            assert got == want
            found += want[1] is not None
        assert found > 200
