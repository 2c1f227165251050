"""Q1-Q5 query tests: `flag_counts` (pandas) checked against the DuckDB
oracle running the paper's literal SQL, plus share-formatting tests."""
import pandas as pd
import pytest

from repro.cleaning.registry import ERROR_TYPES
from repro.core.queries import QUERIES, applicable, flag_counts, group_attr
from repro.core.report import share_rows
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def relation():
    """A small synthetic flagged relation."""
    rows = []
    flags = ["P", "P", "S", "N", "S", "S", "P", "S"]
    for i, flag in enumerate(flags):
        rows.append(
            {
                "dataset": "EEG" if i % 2 == 0 else "Sensor",
                "error_type": "outliers",
                "detect": "SD" if i < 4 else "IQR",
                "repair": "delete",
                "model": "m1" if i % 4 < 2 else "m2",
                "scenario": "BD" if i % 2 == 0 else "CD",
                "flag": flag,
            }
        )
    rows.append(
        {
            "dataset": "Titanic",
            "error_type": "missing_values",
            "detect": "empty_entry",
            "repair": "mean_mode",
            "model": "m1",
            "scenario": "BD",
            "flag": "P",
        }
    )
    return pd.DataFrame(rows)


class TestQueriesAgainstOracle:
    """flag_counts must count what DuckDB counts running the paper's SQL."""

    @pytest.mark.parametrize("q", ["Q1", "Q2", "Q3", "Q4.1", "Q4.2", "Q5"])
    def test_matches_duckdb(self, relation, q):
        attr = group_attr(q)
        for e in ("outliers", "missing_values"):
            counts = flag_counts(relation, q, e)
            long = counts.rename_axis(index=attr or "all", columns="flag").stack()
            long = long[long > 0].rename("n").reset_index()
            got = long[[attr, "flag", "n"] if attr else ["flag", "n"]]
            assert_equivalent(got, QUERIES[q].format(rel="R1", e=e), R1=relation)


class TestQuerySemantics:
    def test_q1_counts(self, relation):
        out = flag_counts(relation, "Q1", "outliers")
        assert out.loc["all"].to_dict() == {"P": 3, "S": 4, "N": 1}

    def test_q1_filters_error_type(self, relation):
        out = flag_counts(relation, "Q1", "missing_values")
        assert out.to_numpy().sum() == 1

    def test_q2_groups_by_scenario(self, relation):
        out = flag_counts(relation, "Q2", "outliers")
        assert set(out.index) == {"BD", "CD"}
        assert out.to_numpy().sum() == 8

    def test_q5_groups_by_dataset(self, relation):
        out = flag_counts(relation, "Q5", "outliers")
        assert set(out.index) == {"EEG", "Sensor"}

    def test_absent_error_type_has_no_rows(self, relation):
        out = flag_counts(relation, "Q5", "duplicates")
        assert out.empty
        assert list(out.columns) == ["P", "S", "N"]
        assert share_rows("R1", out) == []


class TestApplicability:
    def test_q3_only_r1(self):
        assert applicable("Q3", "R1", "outliers")
        assert not applicable("Q3", "R2", "outliers")
        assert not applicable("Q3", "R3", "outliers")

    def test_q4_rules(self):
        assert applicable("Q4.1", "R1", "outliers")
        assert not applicable("Q4.1", "R3", "outliers")
        assert not applicable("Q4.1", "R1", "duplicates")
        assert not applicable("Q4.1", "R1", "missing_values")
        assert applicable("Q4.2", "R1", "missing_values")

    def test_q2_not_for_missing_values(self):
        assert not applicable("Q2", "R1", "missing_values")
        assert applicable("Q2", "R1", "mislabels")

    def test_q1_always(self):
        for rel in ("R1", "R2", "R3"):
            for e in ("outliers", "missing_values", "duplicates"):
                assert applicable("Q1", rel, e)

    def test_matches_paper_rules_on_every_triple(self):
        """The rules derived from the registry give the paper's table of
        which blocks exist: Q4 not for single-method error types nor
        Q4.1 for missing values (one detector), Q2 not for missing values."""

        def paper(q, rel, e):
            if q == "Q3":
                return rel == "R1"
            if q in ("Q4.1", "Q4.2"):
                single = e in ("inconsistencies", "duplicates", "mislabels")
                return rel != "R3" and not single and not (q == "Q4.1" and e == "missing_values")
            return not (q == "Q2" and e == "missing_values")

        for q in QUERIES:
            for rel in ("R1", "R2", "R3"):
                for e in ERROR_TYPES:
                    assert applicable(q, rel, e) == paper(q, rel, e), (q, rel, e)


def _flagged(groups_and_flags):
    return pd.DataFrame(
        [{"error_type": "outliers", "scenario": g, "flag": f} for g, f in groups_and_flags]
    )


class TestFlagShares:
    def test_q1_shape(self):
        counts = flag_counts(_flagged([("BD", "P"), ("BD", "S"), ("CD", "S"), ("CD", "S")]), "Q1", "outliers")
        assert share_rows("R2", counts) == [["R2", "all", "25.00% (1)", "75.00% (3)", "0.00% (0)"]]

    def test_grouped_shares_sum_to_100(self):
        counts = flag_counts(_flagged([("BD", "P"), ("BD", "S"), ("CD", "N"), ("CD", "N")]), "Q2", "outliers")
        assert share_rows("R1", counts) == [
            ["R1", "BD", "50.00% (1)", "50.00% (1)", "0.00% (0)"],
            ["R1", "CD", "0.00% (0)", "0.00% (0)", "100.00% (2)"],
        ]

    def test_group_attr_mapping(self):
        assert group_attr("Q1") is None
        assert group_attr("Q3") == "model"
        assert group_attr("Q5") == "dataset"
