"""Unit tests for the seven NumPy classifiers and the search harness."""
import numpy as np
import pytest

from repro.ml.metrics import accuracy, f1_binary, metric_fn
from repro.ml.models import MODEL_NAMES, make_model, sample_params
from repro.ml.search import random_search


@pytest.fixture(scope="module")
def separable():
    rng = np.random.default_rng(7)
    n = 600
    X = rng.normal(size=(n, 8))
    y = (X[:, 0] + 0.7 * X[:, 1] - 0.4 * X[:, 2] > 0).astype(np.int64)
    Xt = rng.normal(size=(300, 8))
    yt = (Xt[:, 0] + 0.7 * Xt[:, 1] - 0.4 * Xt[:, 2] > 0).astype(np.int64)
    return X, y, Xt, yt


class TestRegistry:
    def test_seven_models(self):
        assert len(MODEL_NAMES) == 7

    def test_paper_model_set(self):
        assert set(MODEL_NAMES) == {
            "logistic_regression",
            "knn",
            "decision_tree",
            "random_forest",
            "adaboost",
            "xgboost",
            "naive_bayes",
        }

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            make_model("svm")

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_sample_params_deterministic(self, name):
        p1 = sample_params(name, np.random.default_rng(3))
        p2 = sample_params(name, np.random.default_rng(3))
        assert p1 == p2


@pytest.mark.parametrize("name", MODEL_NAMES)
class TestEveryModel:
    def test_learns_separable(self, name, separable):
        X, y, Xt, yt = separable
        model = make_model(name).fit(X, y)
        assert accuracy(yt, model.predict(Xt)) > 0.80

    def test_predictions_binary(self, name, separable):
        X, y, Xt, _ = separable
        pred = make_model(name).fit(X, y).predict(Xt)
        assert set(np.unique(pred)) <= {0, 1}
        assert pred.shape == (Xt.shape[0],)

    def test_single_class_training(self, name):
        X = np.random.default_rng(0).normal(size=(30, 4))
        y = np.ones(30, dtype=np.int64)
        pred = make_model(name).fit(X, y).predict(X)
        assert np.all(pred == 1)

    def test_deterministic_fit(self, name, separable):
        X, y, Xt, _ = separable
        p1 = make_model(name, seed=5).fit(X, y).predict(Xt)
        p2 = make_model(name, seed=5).fit(X, y).predict(Xt)
        assert np.array_equal(p1, p2)

    def test_empty_test_set(self, name, separable):
        """Outlier deletion can empty a test variant: predict returns an
        empty vector and both metrics read 0.0."""
        X, y, _, _ = separable
        empty = np.empty((0, X.shape[1]))
        pred = make_model(name).fit(X, y).predict(empty)
        assert pred.shape == (0,)
        no_labels = np.empty(0, dtype=np.int64)
        assert accuracy(no_labels, pred) == 0.0
        assert f1_binary(no_labels, pred) == 0.0


class TestModelSpecifics:
    def test_logreg_coefficients_recover_signal(self, separable):
        X, y, _, _ = separable
        m = make_model("logistic_regression", {"C": 10.0}).fit(X, y)
        beta = m.beta_[:-1]
        assert abs(beta[0]) > abs(beta[4])  # informative beats noise

    def test_knn_k1_memorizes(self, separable):
        X, y, _, _ = separable
        m = make_model("knn", {"k": 1}).fit(X, y)
        assert accuracy(y, m.predict(X)) == 1.0

    def test_adaboost_stages_bounded(self, separable):
        X, y, _, _ = separable
        m = make_model("adaboost", {"n_estimators": 5}).fit(X, y)
        assert 1 <= len(m.alphas_) <= 5
        assert m.trees_.roots.size == len(m.alphas_)

    def test_xgboost_more_rounds_fit_tighter(self, separable):
        X, y, _, _ = separable
        weak = make_model("xgboost", {"n_rounds": 2}).fit(X, y)
        strong = make_model("xgboost", {"n_rounds": 30}).fit(X, y)
        assert accuracy(y, strong.predict(X)) >= accuracy(y, weak.predict(X))

    def test_random_forest_seed_changes_trees(self, separable):
        X, y, _, _ = separable
        m1 = make_model("random_forest", {"n_trees": 5}, seed=1).fit(X, y)
        m2 = make_model("random_forest", {"n_trees": 5}, seed=2).fit(X, y)
        t1, t2 = m1.trees_, m2.trees_
        assert t1.roots.size == t2.roots.size == 5
        assert not (
            np.array_equal(t1.feat, t2.feat)
            and np.array_equal(t1.thr, t2.thr)
            and np.array_equal(t1.value, t2.value)
        )

    def test_naive_bayes_priors_sum_to_one(self, separable):
        X, y, _, _ = separable
        m = make_model("naive_bayes").fit(X, y)
        assert m.priors_[0] + m.priors_[1] == pytest.approx(1.0)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy([], []) == 0.0

    def test_f1_perfect(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_f1_no_positives_predicted(self):
        assert f1_binary([1, 1, 0], [0, 0, 0]) == 0.0

    def test_f1_known_value(self):
        # tp=1, fp=1, fn=1 -> F1 = 2/(2+1+1) = 0.5.
        assert f1_binary([1, 0, 1], [1, 1, 0]) == pytest.approx(0.5)

    def test_f1_undefined_is_zero(self):
        assert f1_binary([0, 0], [0, 0]) == 0.0

    def test_metric_fn_lookup(self):
        assert metric_fn("accuracy") is accuracy
        assert metric_fn("f1") is f1_binary
        with pytest.raises(KeyError):
            metric_fn("auc")


class TestRandomSearch:
    def test_returns_fitted_model(self, separable):
        X, y, Xt, yt = separable
        r = random_search("decision_tree", X, y, seed=0)
        assert accuracy(yt, r.model.predict(Xt)) > 0.7
        assert 0.0 <= r.val_score <= 1.0
        assert isinstance(r.params, dict)

    def test_deterministic_in_seed(self, separable):
        X, y, Xt, _ = separable
        r1 = random_search("xgboost", X, y, seed=11, n_candidates=2)
        r2 = random_search("xgboost", X, y, seed=11, n_candidates=2)
        assert r1.params == r2.params
        assert r1.val_score == r2.val_score

    def test_different_seeds_can_differ(self, separable):
        X, y, _, _ = separable
        params = {
            random_search("decision_tree", X, y, seed=s, n_candidates=1).params[
                "max_depth"
            ]
            for s in range(6)
        }
        assert len(params) > 1

    def test_f1_metric_search(self, separable):
        X, y, _, _ = separable
        r = random_search("logistic_regression", X, y, seed=0, metric="f1")
        assert 0.0 <= r.val_score <= 1.0

    def test_more_candidates_no_worse_val(self, separable):
        X, y, _, _ = separable
        r1 = random_search("decision_tree", X, y, seed=4, n_candidates=1)
        r5 = random_search("decision_tree", X, y, seed=4, n_candidates=5)
        assert r5.val_score >= r1.val_score - 1e-9
