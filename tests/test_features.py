"""Unit tests for the feature preprocessing substrate."""
import numpy as np
import pandas as pd
import pytest

from repro.ml.features import TEXT_DIMS, Featurizer, downsample_majority


@pytest.fixture
def frame():
    return pd.DataFrame(
        {
            "x": [1.0, 2.0, 3.0, 4.0],
            "c": ["a", "b", "a", "c"],
            "t": ["red fox", "red dog", "blue fox", "blue dog"],
        }
    )


class TestNumeric:
    def test_standardized(self, frame):
        f = Featurizer(numeric=["x"]).fit(frame)
        X = f.transform(frame)
        assert X[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert X[:, 0].std() == pytest.approx(1.0, abs=1e-12)

    def test_train_stats_applied_to_test(self, frame):
        f = Featurizer(numeric=["x"]).fit(frame)
        test = pd.DataFrame({"x": [10.0]})
        X = f.transform(test)
        assert X[0, 0] == pytest.approx((10.0 - 2.5) / np.std([1, 2, 3, 4]))

    def test_nan_filled_with_train_mean(self, frame):
        f = Featurizer(numeric=["x"]).fit(frame)
        X = f.transform(pd.DataFrame({"x": [np.nan]}))
        assert X[0, 0] == pytest.approx(0.0)

    def test_constant_column_no_nan(self):
        pdf = pd.DataFrame({"x": [5.0, 5.0, 5.0]})
        X = Featurizer(numeric=["x"]).fit(pdf).transform(pdf)
        assert np.all(np.isfinite(X))


class TestCategorical:
    def test_one_hot_width(self, frame):
        f = Featurizer(categorical=["c"]).fit(frame)
        X = f.transform(frame)
        assert X.shape[1] == 3
        assert np.all(X.sum(axis=1) == 1.0)

    def test_unseen_category_is_zero_vector(self, frame):
        f = Featurizer(categorical=["c"]).fit(frame)
        X = f.transform(pd.DataFrame({"c": ["zz"]}))
        assert X.sum() == 0.0

    def test_vocab_sorted_deterministic(self, frame):
        f1 = Featurizer(categorical=["c"]).fit(frame)
        f2 = Featurizer(categorical=["c"]).fit(frame.iloc[::-1])
        assert f1._vocab == f2._vocab

    def test_nan_category_not_in_vocab(self):
        pdf = pd.DataFrame({"c": ["a", None, "b"]})
        f = Featurizer(categorical=["c"]).fit(pdf)
        assert set(f._vocab["c"]) == {"a", "b"}


class TestText:
    def test_tfidf_shape(self, frame):
        f = Featurizer(text=["t"]).fit(frame)
        X = f.transform(frame)
        assert X.shape == (4, TEXT_DIMS)

    def test_rows_l2_normalized(self, frame):
        f = Featurizer(text=["t"]).fit(frame)
        X = f.transform(frame)
        norms = np.linalg.norm(X, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_similar_docs_closer(self, frame):
        f = Featurizer(text=["t"]).fit(frame)
        X = f.transform(frame)
        # "red fox" is closer to "red dog" than to "blue dog".
        d_same = np.linalg.norm(X[0] - X[1])
        d_diff = np.linalg.norm(X[0] - X[3])
        assert d_same < d_diff

    def test_hashing_stable_across_fits(self, frame):
        X1 = Featurizer(text=["t"]).fit(frame).transform(frame)
        X2 = Featurizer(text=["t"]).fit(frame).transform(frame)
        assert np.array_equal(X1, X2)

    def test_empty_text_ok(self):
        pdf = pd.DataFrame({"t": ["", None, "word"]})
        X = Featurizer(text=["t"]).fit(pdf).transform(pdf)
        assert np.all(np.isfinite(X))


class TestCombined:
    def test_width_sums_column_roles(self, frame):
        f = Featurizer(numeric=["x"], categorical=["c"], text=["t"]).fit(frame)
        assert f.transform(frame).shape[1] == 1 + 3 + TEXT_DIMS

    def test_empty_roles(self, frame):
        f = Featurizer().fit(frame)
        assert f.transform(frame).shape == (4, 0)


class TestDownsample:
    def test_balances_classes(self):
        pdf = pd.DataFrame({"y": [0] * 90 + [1] * 10, "x": range(100)})
        out = downsample_majority(pdf, "y", seed=0)
        assert (out.y == 0).sum() == (out.y == 1).sum() == 10

    def test_without_replacement(self):
        pdf = pd.DataFrame({"y": [0] * 50 + [1] * 10, "x": range(60)})
        out = downsample_majority(pdf, "y", seed=1)
        assert out[out.y == 0].x.is_unique

    def test_deterministic(self):
        pdf = pd.DataFrame({"y": [0] * 40 + [1] * 8, "x": range(48)})
        a = downsample_majority(pdf, "y", seed=3)
        b = downsample_majority(pdf, "y", seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_single_class_untouched(self):
        pdf = pd.DataFrame({"y": [1] * 20, "x": range(20)})
        assert len(downsample_majority(pdf, "y", seed=0)) == 20

    def test_minority_kept_entirely(self):
        pdf = pd.DataFrame({"y": [0] * 70 + [1] * 5, "x": range(75)})
        out = downsample_majority(pdf, "y", seed=2)
        assert sorted(out[out.y == 1].x) == [70, 71, 72, 73, 74]
