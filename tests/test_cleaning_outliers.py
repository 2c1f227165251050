"""Outlier cleaning: SD/IQR/IF detection, repairs, DuckDB oracle, and
the cleaning gain on EEG."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.cleaning.isolation_forest import IsolationForest, _c
from repro.cleaning.outliers import (
    detect_cells_pandas,
    detect_rows_pandas,
    fit_outlier_stats,
    repair_pandas,
)
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
        s = fit_outlier_stats(frame, ["a"], "SD")
        mu, sd = frame.a.mean(), frame.a.std(ddof=0)
        assert s.bounds["a"][0] == pytest.approx(mu - 3 * sd)
        assert s.bounds["a"][1] == pytest.approx(mu + 3 * sd)

    def test_detects_planted(self, frame):
        s = fit_outlier_stats(frame, ["a"], "SD")
        mask = detect_cells_pandas(frame, s)
        assert mask.a[:5].all()

    def test_clean_column_untouched(self, frame):
        s = fit_outlier_stats(frame, ["a", "b"], "SD")
        mask = detect_cells_pandas(frame, s)
        assert mask.b.sum() <= 2  # ~3 sigma on normal data


class TestIQR:
    def test_bounds_formula(self, frame):
        s = fit_outlier_stats(frame, ["a"], "IQR")
        q1, q3 = frame.a.quantile(0.25), frame.a.quantile(0.75)
        iqr = q3 - q1
        assert s.bounds["a"][0] == pytest.approx(q1 - 1.5 * iqr)
        assert s.bounds["a"][1] == pytest.approx(q3 + 1.5 * iqr)

    def test_detects_planted(self, frame):
        s = fit_outlier_stats(frame, ["a"], "IQR")
        assert detect_cells_pandas(frame, s).a[:5].all()

    def test_row_mask_is_union(self, frame):
        s = fit_outlier_stats(frame, ["a", "b"], "IQR")
        cells = detect_cells_pandas(frame, s)
        rows = detect_rows_pandas(frame, s)
        assert rows.equals(cells.any(axis=1))


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
        s = fit_outlier_stats(frame, ["a", "b"], "IF", seed=0)
        rows = detect_rows_pandas(frame, s)
        assert 1 <= rows.sum() <= 6
        assert rows[:5].sum() >= 1
        assert rows[5:].sum() <= 1


class TestRepairs:
    @pytest.mark.parametrize("detect", ["SD", "IQR"])
    def test_delete_removes_flagged_rows(self, frame, detect):
        s = fit_outlier_stats(frame, ["a"], detect)
        out = repair_pandas(frame, s, "delete")
        assert len(out) == len(frame) - detect_rows_pandas(frame, s).sum()

    @pytest.mark.parametrize(
        "repair", ["impute_mean", "impute_median", "impute_mode"]
    )
    def test_impute_uses_inlier_stats(self, frame, repair):
        s = fit_outlier_stats(frame, ["a"], "SD")
        out = repair_pandas(frame, s, repair)
        fill = s.fill_value("a", repair)
        assert np.allclose(out.a[:5], fill)
        lo, hi = s.bounds["a"]
        assert lo <= fill <= hi  # fitted on inliers only

    def test_impute_keeps_inliers(self, frame):
        s = fit_outlier_stats(frame, ["a"], "IQR")
        out = repair_pandas(frame, s, "impute_mean")
        inl = ~detect_cells_pandas(frame, s).a
        assert np.allclose(out.a[inl], frame.a[inl])

    def test_if_repair_applies_to_whole_row(self, frame):
        s = fit_outlier_stats(frame, ["a", "b"], "IF", seed=0)
        out = repair_pandas(frame, s, "impute_median")
        rows = detect_rows_pandas(frame, s)
        assert np.allclose(out.a[rows], s.fill_median["a"])
        assert np.allclose(out.b[rows], s.fill_median["b"])

    def test_test_set_repaired_with_train_bounds(self, frame):
        s = fit_outlier_stats(frame, ["a"], "SD")
        test = pd.DataFrame({"a": [10.0, 500.0], "b": [0.0, 0.0]})
        out = repair_pandas(test, s, "impute_mean")
        assert out.a[0] == 10.0
        assert out.a[1] == pytest.approx(s.fill_mean["a"])


class TestOracle:
    def test_delete_against_oracle(self, frame):
        s = fit_outlier_stats(frame, ["a"], "SD")
        lo, hi = s.bounds["a"]
        out = repair_pandas(frame[["a"]], s, "delete")
        assert_equivalent(
            out,
            f"SELECT a FROM t WHERE a >= {lo} AND a <= {hi}",
            t=frame[["a"]],
        )

    def test_impute_against_oracle(self, frame):
        s = fit_outlier_stats(frame, ["a"], "IQR")
        lo, hi = s.bounds["a"]
        fill = s.fill_mean["a"]
        out = repair_pandas(frame[["a"]], s, "impute_mean")
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
        train, test = split_frame(load_dataset("EEG"), 11, 0.3)
        stats = fit_outlier_stats(train, list(spec.numeric), "IQR")
        train_c = repair_pandas(train, stats, "impute_mean")
        test_c = repair_pandas(test, stats, "impute_mean")
        yt = test_c[spec.label].to_numpy()

        def score(fit_frame):
            feat = Featurizer(numeric=list(spec.numeric)).fit(fit_frame)
            model = make_model("logistic_regression").fit(
                feat.transform(fit_frame), fit_frame[spec.label].to_numpy()
            )
            return accuracy(yt, model.predict(feat.transform(test_c)))

        assert score(train_c) > score(train)
