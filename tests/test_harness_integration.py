"""Integration test: the full Spark dataflow (grid -> mapInPandas ->
relations -> queries -> report) at smoke scale."""
import dataclasses

import pytest
from pyspark.sql import functions as F

from repro.core.harness import build_grid, run_grid
from repro.core.protocol import SMOKE
from repro.core.queries import register_relations, run_query
from repro.core.relations import build_relations
from repro.core.report import markdown_table, table15_markdown

PROTO = dataclasses.replace(SMOKE, n_splits=3)


@pytest.fixture(scope="module")
def results(spark):
    return run_grid(
        spark,
        PROTO,
        error_types=("inconsistencies",),
        datasets=("University", "Restaurant"),
    ).cache()


class TestGrid:
    def test_grid_rows(self):
        grid = build_grid(PROTO, ("inconsistencies",), ("University", "Restaurant"))
        assert len(grid) == 2 * PROTO.n_splits

    def test_grid_all_errors(self):
        grid = build_grid(PROTO)
        # 6 MV + 5 outlier + 4 dup + 4 inc + 9 mislabel datasets = 28 units/split.
        assert len(grid) == 28 * PROTO.n_splits

    def test_one_unit_per_partition(self, spark):
        proto = dataclasses.replace(SMOKE, n_splits=4, models=("naive_bayes",))
        out = run_grid(spark, proto, ("outliers",), ("Credit",))
        try:
            units = (
                out.select(
                    F.spark_partition_id().alias("pid"),
                    "dataset",
                    "error_type",
                    "split_seed",
                )
                .distinct()
                .toPandas()
            )
        finally:
            out.unpersist()
        assert sorted(units.split_seed) == [100, 101, 102, 103]
        assert units.pid.is_unique


class TestResults:
    def test_expected_row_count(self, results):
        # 2 datasets x 3 splits x 2 versions x 3 models x 1 seed x 2 variants.
        assert results.count() == 2 * 3 * 2 * 3 * 1 * 2

    def test_metrics_bounded(self, results):
        pdf = results.toPandas()
        assert pdf.test_metric.between(0, 1).all()

    def test_distributed_execution_matches_local(self, results, spark):
        """One unit re-run locally must equal the Spark-produced rows."""
        import pandas as pd

        from repro.core.runner import run_unit

        local = run_unit("University", "inconsistencies", PROTO.split_seed0, PROTO)
        remote = (
            results.where(
                f"dataset = 'University' AND split_seed = {PROTO.split_seed0}"
            )
            .toPandas()
            .sort_values(["train_version", "model", "test_variant"])
            .reset_index(drop=True)
        )
        local = local.sort_values(
            ["train_version", "model", "test_variant"]
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(local, remote, check_dtype=False)


class TestRelationsEndToEnd:
    def test_relations_built(self, results):
        rel = build_relations(results)
        # R1: 2 datasets x 1 method x 3 models x 2 scenarios = 12 rows.
        assert len(rel["R1"]) == 12
        assert len(rel["R2"]) == 4
        assert len(rel["R3"]) == 4
        for pdf in rel.values():
            assert set(pdf.flag) <= {"P", "N", "S"}

    def test_queries_and_report(self, results, spark):
        rel = build_relations(results)
        register_relations(spark, rel)
        q1 = run_query(spark, "Q1", "R1", "inconsistencies").toPandas()
        assert q1.n.sum() == 12
        md = table15_markdown(spark, error_types=("inconsistencies",))
        assert "Q1 (E=inconsistencies)" in md
        assert "| R |" in markdown_table(
            __import__("pandas").DataFrame({"R": ["R1"]})
        )
