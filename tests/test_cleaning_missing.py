"""Missing-value cleaning: stats, deletion, imputation + DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.cleaning.missing import (
    DUMMY,
    delete_missing_pandas,
    detect_missing_pandas,
    fit_impute_stats,
    impute_pandas,
    split_repair,
)
from repro.cleaning.registry import MISSING_IMPUTATIONS
from repro.oracle import assert_equivalent


@pytest.fixture
def dirty():
    return pd.DataFrame(
        {
            "a": [1.0, 2.0, np.nan, 4.0, 100.0, np.nan],
            "b": [10.0, np.nan, 30.0, 40.0, 50.0, 60.0],
            "c": ["x", "y", None, "x", "x", "y"],
        }
    )


class TestStats:
    def test_mean_median_mode(self, dirty):
        s = fit_impute_stats(dirty, ["a", "b"], ["c"])
        assert s.num_mean["a"] == pytest.approx(np.nanmean(dirty.a))
        assert s.num_median["a"] == pytest.approx(np.nanmedian(dirty.a))
        assert s.num_mode["b"] == 10.0  # all unique -> smallest mode
        assert s.cat_mode["c"] == "x"

    def test_all_missing_column(self):
        pdf = pd.DataFrame({"a": [np.nan, np.nan], "c": [None, None]})
        s = fit_impute_stats(pdf, ["a"], ["c"])
        assert s.num_mean["a"] == 0.0
        assert s.cat_mode["c"] == DUMMY


class TestDetectDelete:
    def test_detect_rows(self, dirty):
        mask = detect_missing_pandas(dirty, ["a", "b", "c"])
        assert mask.tolist() == [False, True, True, False, False, True]

    def test_delete_drops_only_missing(self, dirty):
        out = delete_missing_pandas(dirty, ["a", "b", "c"])
        assert len(out) == 3
        assert not out[["a", "b", "c"]].isna().any().any()

    def test_delete_subset_of_columns(self, dirty):
        out = delete_missing_pandas(dirty, ["a"])
        assert len(out) == 4


@pytest.mark.parametrize("repair", MISSING_IMPUTATIONS)
class TestImputeAllMethods:
    def test_no_missing_left(self, dirty, repair):
        s = fit_impute_stats(dirty, ["a", "b"], ["c"])
        num_m, cat_m = split_repair(repair)
        out = impute_pandas(
            dirty, s, numeric=["a", "b"], categorical=["c"],
            num_method=num_m, cat_method=cat_m,
        )
        assert not out[["a", "b", "c"]].isna().any().any()

    def test_observed_values_unchanged(self, dirty, repair):
        s = fit_impute_stats(dirty, ["a", "b"], ["c"])
        num_m, cat_m = split_repair(repair)
        out = impute_pandas(
            dirty, s, numeric=["a", "b"], categorical=["c"],
            num_method=num_m, cat_method=cat_m,
        )
        obs = dirty.a.notna()
        assert np.allclose(out.a[obs], dirty.a[obs])


class TestImputeSemantics:
    def test_mean_fill_value(self, dirty):
        s = fit_impute_stats(dirty, ["a"], [])
        out = impute_pandas(
            dirty, s, numeric=["a"], categorical=[], num_method="mean", cat_method="mode"
        )
        assert out.a[2] == pytest.approx(np.nanmean(dirty.a))

    def test_dummy_category(self, dirty):
        s = fit_impute_stats(dirty, [], ["c"])
        out = impute_pandas(
            dirty, s, numeric=[], categorical=["c"], num_method="mean", cat_method="dummy"
        )
        assert out.c[2] == DUMMY

    def test_mode_category(self, dirty):
        s = fit_impute_stats(dirty, [], ["c"])
        out = impute_pandas(
            dirty, s, numeric=[], categorical=["c"], num_method="mean", cat_method="mode"
        )
        assert out.c[2] == "x"

    def test_train_stats_used_on_test(self, dirty):
        s = fit_impute_stats(dirty, ["a"], [])
        test = pd.DataFrame({"a": [np.nan]})
        out = impute_pandas(
            test, s, numeric=["a"], categorical=[], num_method="median", cat_method="mode"
        )
        assert out.a[0] == pytest.approx(np.nanmedian(dirty.a))


class TestOracle:
    def test_impute_against_oracle(self, dirty):
        """Mean imputation must equal DuckDB's COALESCE+AVG SQL."""
        s = fit_impute_stats(dirty, ["a"], [])
        out = impute_pandas(
            dirty[["a"]], s, numeric=["a"], categorical=[],
            num_method="mean", cat_method="mode",
        )
        assert_equivalent(
            out,
            "SELECT COALESCE(a, (SELECT AVG(a) FROM t)) AS a FROM t",
            t=dirty[["a"]],
        )

    def test_delete_against_oracle(self, dirty):
        out = delete_missing_pandas(dirty[["a", "b"]], ["a", "b"])
        assert_equivalent(
            out,
            "SELECT a, b FROM t WHERE a IS NOT NULL AND b IS NOT NULL",
            t=dirty[["a", "b"]],
        )
