"""Missing-value cleaning: stats, deletion, imputation + DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.cleaning.missing import (
    DUMMY,
    MISSING_IMPUTATIONS,
    detect_missing,
    fit_imputations,
)
from repro.cleaning.repair import delete_rows, impute
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


def _fills(train, numeric, categorical):
    mask = detect_missing(train, numeric + categorical)
    return fit_imputations(train, mask, numeric, categorical)


def _impute(frame, fill):
    return impute(frame, detect_missing(frame, list(fill)), fill)


class TestStats:
    def test_mean_median_mode(self, dirty):
        s = _fills(dirty, ["a", "b"], ["c"])
        assert s["mean_mode"]["a"] == pytest.approx(np.nanmean(dirty.a))
        assert s["median_mode"]["a"] == pytest.approx(np.nanmedian(dirty.a))
        assert s["mode_mode"]["b"] == 10.0  # all unique -> smallest mode
        assert s["mean_mode"]["c"] == "x"

    def test_all_missing_column(self):
        pdf = pd.DataFrame({"a": [np.nan, np.nan], "c": [None, None]})
        s = _fills(pdf, ["a"], ["c"])
        assert s["mean_mode"]["a"] == 0.0
        assert s["mean_mode"]["c"] == DUMMY


class TestDetectDelete:
    def test_detect_rows(self, dirty):
        mask = detect_missing(dirty, ["a", "b", "c"]).any(axis=1)
        assert mask.tolist() == [False, True, True, False, False, True]

    def test_delete_drops_only_missing(self, dirty):
        out = delete_rows(dirty, detect_missing(dirty, ["a", "b", "c"]))
        assert len(out) == 3
        assert not out[["a", "b", "c"]].isna().any().any()

    def test_delete_subset_of_columns(self, dirty):
        out = delete_rows(dirty, detect_missing(dirty, ["a"]))
        assert len(out) == 4


@pytest.mark.parametrize("repair", MISSING_IMPUTATIONS)
class TestImputeAllMethods:
    def test_no_missing_left(self, dirty, repair):
        out = _impute(dirty, _fills(dirty, ["a", "b"], ["c"])[repair])
        assert not out[["a", "b", "c"]].isna().any().any()

    def test_observed_values_unchanged(self, dirty, repair):
        out = _impute(dirty, _fills(dirty, ["a", "b"], ["c"])[repair])
        obs = dirty.a.notna()
        assert np.allclose(out.a[obs], dirty.a[obs])


class TestImputeSemantics:
    def test_mean_fill_value(self, dirty):
        out = _impute(dirty, _fills(dirty, ["a"], [])["mean_mode"])
        assert out.a[2] == pytest.approx(np.nanmean(dirty.a))

    def test_dummy_category(self, dirty):
        out = _impute(dirty, _fills(dirty, [], ["c"])["mean_dummy"])
        assert out.c[2] == DUMMY

    def test_mode_category(self, dirty):
        out = _impute(dirty, _fills(dirty, [], ["c"])["mean_mode"])
        assert out.c[2] == "x"

    def test_train_stats_used_on_test(self, dirty):
        s = _fills(dirty, ["a"], [])
        test = pd.DataFrame({"a": [np.nan]})
        out = _impute(test, s["median_mode"])
        assert out.a[0] == pytest.approx(np.nanmedian(dirty.a))


class TestOracle:
    def test_impute_against_oracle(self, dirty):
        """Mean imputation must equal DuckDB's COALESCE+AVG SQL."""
        out = _impute(dirty[["a"]], _fills(dirty, ["a"], [])["mean_mode"])
        assert_equivalent(
            out,
            "SELECT COALESCE(a, (SELECT AVG(a) FROM t)) AS a FROM t",
            t=dirty[["a"]],
        )

    def test_delete_against_oracle(self, dirty):
        out = delete_rows(dirty[["a", "b"]], detect_missing(dirty[["a", "b"]], ["a", "b"]))
        assert_equivalent(
            out,
            "SELECT a, b FROM t WHERE a IS NOT NULL AND b IS NOT NULL",
            t=dirty[["a", "b"]],
        )
