"""Outlier cleaning: SD/IQR/IF detection, repairs, DuckDB oracle, and
the cleaning gain on EEG."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.cleaning.isolation_forest import IsolationForest, _c
from repro.cleaning.outliers import fit_outlier_detector
from repro.cleaning.repair import delete_rows, impute, inlier_stats
from repro.core.runner import split_frame
from repro.datasets.registry import load_dataset, spec_for
from repro.ml.features import Featurizer
from repro.ml.metrics import accuracy
from repro.ml.models import make_model
from repro.ml.tree import Tree, tree_apply
from repro.oracle import assert_equivalent


@pytest.fixture
def frame():
    rng = np.random.default_rng(0)
    a = rng.normal(10, 1, 200)
    a[:5] = [50.0, -40.0, 60.0, 55.0, -45.0]  # gross outliers
    b = rng.normal(0, 2, 200)
    return pd.DataFrame({"a": a, "b": b})


class TestSD:
    def test_bounds_formula(self, frame):
        s = fit_outlier_detector(frame, ["a"], "SD", seed=0)
        mu, sd = frame.a.mean(), frame.a.std(ddof=0)
        assert s.bounds["a"][0] == pytest.approx(mu - 3 * sd)
        assert s.bounds["a"][1] == pytest.approx(mu + 3 * sd)

    def test_detects_planted(self, frame):
        mask = fit_outlier_detector(frame, ["a"], "SD", seed=0).cells(frame)
        assert mask.a[:5].all()

    def test_clean_column_untouched(self, frame):
        mask = fit_outlier_detector(frame, ["a", "b"], "SD", seed=0).cells(frame)
        assert mask.b.sum() <= 2  # ~3 sigma on normal data


class TestIQR:
    def test_bounds_formula(self, frame):
        s = fit_outlier_detector(frame, ["a"], "IQR", seed=0)
        q1, q3 = frame.a.quantile(0.25), frame.a.quantile(0.75)
        iqr = q3 - q1
        assert s.bounds["a"][0] == pytest.approx(q1 - 1.5 * iqr)
        assert s.bounds["a"][1] == pytest.approx(q3 + 1.5 * iqr)

    def test_detects_planted(self, frame):
        s = fit_outlier_detector(frame, ["a"], "IQR", seed=0)
        assert s.cells(frame).a[:5].all()

    def test_row_mask_is_union(self, frame):
        cells = fit_outlier_detector(frame, ["a", "b"], "IQR", seed=0).cells(frame)
        flagged = set(frame.index[cells.a]) | set(frame.index[cells.b])
        kept = delete_rows(frame, cells)
        assert kept.equals(frame.drop(index=list(flagged)).reset_index(drop=True))


# Scores of IsolationForest(n_trees=8, seed=4) on the ``tied`` matrices,
# recorded from the recursive dict-tree scorer the flat trees replaced.
RECORDED_TRAIN = [
    0.5685973405426707, 0.5617547032526415, 0.45770783146371463, 0.4929792721045888,
    0.5617547032526415, 0.5081013501859596, 0.45770783146371463, 0.4929792721045888,
    0.4929792721045888, 0.480374361533702, 0.45770783146371463, 0.5529728014572161,
    0.45770783146371463, 0.480374361533702, 0.5632180255768503, 0.4929792721045888,
    0.4929792721045888, 0.45770783146371463, 0.5085989759393373, 0.45770783146371463,
]
RECORDED_HELD_OUT = [
    0.5810631952456387, 0.5810631952456387, 0.5685973405426707, 0.5529728014572161,
    0.45770783146371463,
]
RECORDED_THRESHOLD = 0.5675752706991648


@pytest.fixture
def tied():
    """Rounded training values (many ties) with a constant column, and a
    held-out matrix."""
    rng = np.random.default_rng(13)
    X = np.round(rng.normal(0, 2, (20, 3)))
    X[:, 2] = 1.0
    return X, np.round(rng.normal(0, 3, (5, 3)), 1)


class TestIsolationForest:
    def test_scores_match_recorded(self, tied):
        X, held_out = tied
        f = IsolationForest(n_trees=8, seed=4).fit(X)
        assert f.score(X).tolist() == RECORDED_TRAIN
        assert f.score(held_out).tolist() == RECORDED_HELD_OUT
        assert f.threshold_ == RECORDED_THRESHOLD

    def test_row_at_split_goes_right(self, tied):
        X, _ = tied
        trees = IsolationForest(n_trees=1, seed=4).fit(X).trees_
        rng = np.random.default_rng(4)  # replay the root's draws
        sub = X[rng.choice(X.shape[0], size=X.shape[0], replace=False)]
        feat = int(rng.integers(0, X.shape[1]))
        split = rng.uniform(sub[:, feat].min(), sub[:, feat].max())
        root = trees.roots[0]
        assert trees.feat[root] == feat
        # Leaf values become node ids; in pre-order the right subtree
        # starts at right[root], after every node of the left one.
        ids = dataclasses.replace(trees, value=np.arange(trees.feat.size, dtype=float))
        rows = np.repeat(X[:1], 2, axis=0)
        rows[:, feat] = [np.nextafter(split, -np.inf), split]
        below, at = tree_apply(ids, rows)[0]
        assert below < trees.right[root] <= at

    def test_trees_are_one_stacked_tree(self, tied):
        trees = IsolationForest(n_trees=8, seed=4).fit(tied[0]).trees_
        assert isinstance(trees, Tree)
        assert trees.roots.size == 8
        assert trees.thr.dtype == np.float64

    def test_empty_matrix_scores_empty(self, tied):
        f = IsolationForest(n_trees=8, seed=4).fit(tied[0])
        assert f.score(np.empty((0, 3))).shape == (0,)

    def test_c_formula(self):
        assert _c(1) == 0.0
        assert _c(2) > 0.0

    def test_anomalies_score_higher(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (300, 2))
        X[0] = [15.0, -15.0]
        f = IsolationForest(seed=0).fit(X)
        scores = f.score(X)
        assert scores[0] > np.median(scores)

    def test_contamination_rate(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (500, 3))
        f = IsolationForest(contamination=0.05, seed=0).fit(X)
        rate = f.predict_outlier(X).mean()
        assert 0.0 < rate <= 0.12

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (200, 2))
        s1 = IsolationForest(seed=9).fit(X).score(X)
        s2 = IsolationForest(seed=9).fit(X).score(X)
        assert np.allclose(s1, s2)

    def test_detects_planted_in_frame(self, frame):
        # contamination=0.01 flags ~2 of 200 rows; those few flagged
        # rows must come from the planted gross outliers.
        rows = fit_outlier_detector(frame, ["a", "b"], "IF", seed=0).cells(frame).any(axis=1)
        assert 1 <= rows.sum() <= 6
        assert rows[:5].sum() >= 1
        assert rows[5:].sum() <= 1


@pytest.mark.parametrize("detect", ["SD", "IQR", "IF"])
def test_train_cells_are_cells_of_train(frame, detect):
    """The mask a detector keeps from its fit is the one ``cells`` gives
    the training frame (for IF, from the scores that set its threshold)."""
    frame.loc[7, "b"] = np.nan
    s = fit_outlier_detector(frame, ["a", "b"], detect, seed=0)
    pd.testing.assert_frame_equal(s.train_cells, s.cells(frame))
    assert s.train_cells.to_numpy().any()


class TestRepairs:
    @pytest.mark.parametrize("detect", ["SD", "IQR"])
    def test_delete_removes_flagged_rows(self, frame, detect):
        cells = fit_outlier_detector(frame, ["a"], detect, seed=0).cells(frame)
        out = delete_rows(frame, cells)
        assert len(out) == len(frame) - cells.any(axis=1).sum()

    @pytest.mark.parametrize(
        "repair", ["impute_mean", "impute_median", "impute_mode"]
    )
    def test_impute_uses_inlier_stats(self, frame, repair):
        s = fit_outlier_detector(frame, ["a"], "SD", seed=0)
        cells = s.cells(frame)
        fills = inlier_stats(frame, cells)[repair.removeprefix("impute_")]
        out = impute(frame, cells, fills)
        fill = fills["a"]
        assert np.allclose(out.a[:5], fill)
        lo, hi = s.bounds["a"]
        assert lo <= fill <= hi  # fitted on inliers only

    def test_impute_keeps_inliers(self, frame):
        cells = fit_outlier_detector(frame, ["a"], "IQR", seed=0).cells(frame)
        out = impute(frame, cells, inlier_stats(frame, cells)["mean"])
        inl = ~cells.a
        assert np.allclose(out.a[inl], frame.a[inl])

    def test_if_repair_applies_to_whole_row(self, frame):
        cells = fit_outlier_detector(frame, ["a", "b"], "IF", seed=0).cells(frame)
        fill = inlier_stats(frame, cells)["median"]
        out = impute(frame, cells, fill)
        rows = cells.any(axis=1)
        assert np.allclose(out.a[rows], fill["a"])
        assert np.allclose(out.b[rows], fill["b"])

    def test_test_set_repaired_with_train_bounds(self, frame):
        s = fit_outlier_detector(frame, ["a"], "SD", seed=0)
        fill = inlier_stats(frame, s.cells(frame))["mean"]
        test = pd.DataFrame({"a": [10.0, 500.0], "b": [0.0, 0.0]})
        out = impute(test, s.cells(test), fill)
        assert out.a[0] == 10.0
        assert out.a[1] == pytest.approx(fill["a"])

    def test_inlier_stats_fall_back(self):
        """Every cell flagged: stats over all non-missing cells; none: 0.0."""
        train = pd.DataFrame({"a": [1.0, 3.0, np.nan], "b": [np.nan] * 3})
        flagged = pd.DataFrame(True, index=train.index, columns=["a", "b"])
        assert inlier_stats(train, flagged)["mean"] == {"a": 2.0, "b": 0.0}


class TestOracle:
    def test_delete_against_oracle(self, frame):
        s = fit_outlier_detector(frame, ["a"], "SD", seed=0)
        lo, hi = s.bounds["a"]
        out = delete_rows(frame[["a"]], s.cells(frame[["a"]]))
        assert_equivalent(
            out,
            f"SELECT a FROM t WHERE a >= {lo} AND a <= {hi}",
            t=frame[["a"]],
        )

    def test_impute_against_oracle(self, frame):
        s = fit_outlier_detector(frame, ["a"], "IQR", seed=0)
        lo, hi = s.bounds["a"]
        fills = inlier_stats(frame, s.cells(frame))["mean"]
        fill = fills["a"]
        out = impute(frame[["a"]], s.cells(frame[["a"]]), fills)
        assert_equivalent(
            out,
            f"SELECT CASE WHEN a < {lo} OR a > {hi} THEN {fill} ELSE a END AS a FROM t",
            t=frame[["a"]],
        )


class TestCleaningGain:
    def test_iqr_impute_mean_raises_lr_accuracy_on_eeg(self):
        """On EEG split 11, IQR + impute_mean beats dirty training for
        logistic regression, both scored on the cleaned test set."""
        spec = spec_for("EEG")
        train, test = split_frame(load_dataset("EEG"), 11)
        detector = fit_outlier_detector(train, list(spec.numeric), "IQR", seed=0)
        train_mask = detector.cells(train)
        fill = inlier_stats(train, train_mask)["mean"]
        train_c = impute(train, train_mask, fill)
        test_c = impute(test, detector.cells(test), fill)
        yt = test_c[spec.label].to_numpy()

        def score(fit_frame):
            feat = Featurizer(numeric=list(spec.numeric)).fit(fit_frame)
            model = make_model("logistic_regression").fit(
                feat.transform(fit_frame), fit_frame[spec.label].to_numpy()
            )
            return accuracy(yt, model.predict(feat.transform(test_c)))

        assert score(train_c) > score(train)
