"""Sanity tests for the DuckDB oracle so a regression there is caught
close to its source."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def flags(spark):
    pdf = pd.DataFrame(
        {
            "flag": ["P", "N", "S", "S", "P", "S"],
            "dataset": ["A", "A", "A", "B", "B", "B"],
            "p": [0.01, 0.02, 0.5, 0.7, 0.001, 0.9],
        }
    )
    return spark.createDataFrame(pdf)


class TestOracle:
    def test_accepts_matching_aggregate(self, flags):
        got = flags.groupBy("flag").count().withColumnRenamed("count", "n")
        assert_equivalent(
            got, "SELECT flag, COUNT(*) AS n FROM flags GROUP BY flag", flags=flags
        )

    def test_rejects_wrong_result(self, flags):
        wrong = flags.limit(2).select("dataset")
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, "SELECT dataset FROM flags", flags=flags)

    def test_rejects_column_mismatch(self, flags):
        got = flags.groupBy("flag").count()
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(
                got, "SELECT flag, COUNT(*) AS n FROM flags GROUP BY flag", flags=flags
            )
