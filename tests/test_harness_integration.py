"""Integration test: the full Spark dataflow (grid -> mapInPandas ->
relations -> queries -> report) at smoke scale."""
import dataclasses
import importlib.util
from pathlib import Path

import pandas as pd
import pyarrow.parquet as pq
import pytest
from pyspark.sql import functions as F

from repro.core.harness import build_grid, run_grid
from repro.core.protocol import SMOKE
from repro.core.queries import flag_counts, register_relations
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

    def test_failing_unit_is_named(self, spark):
        proto = dataclasses.replace(SMOKE, n_splits=1, models=("nope",))
        with pytest.raises(Exception, match="unit University/inconsistencies/100 failed"):
            run_grid(spark, proto, ("inconsistencies",), ("University",))


class TestResults:
    def test_expected_row_count(self, results):
        # 2 datasets x 3 splits x 2 versions x 3 models x 1 seed x 2 variants.
        assert results.count() == 2 * 3 * 2 * 3 * 1 * 2

    def test_metrics_bounded(self, results):
        pdf = results.toPandas()
        assert pdf.test_metric.between(0, 1).all()

    def test_distributed_execution_matches_local(self, results, spark):
        """One unit re-run locally must equal the Spark-produced rows."""
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
        assert flag_counts(rel["R1"], "Q1", "inconsistencies").to_numpy().sum() == 12
        md = table15_markdown(spark, error_types=("inconsistencies",))
        assert "Q1 (E=inconsistencies)" in md
        for frame, header, row in (
            (pd.DataFrame({"R": ["R1"]}), "| R |", "| R1 |"),
            # an int column next to a float one still prints as an int
            (pd.DataFrame({"seed": [100], "p": [0.5]}), "| seed | p |", "| 100 | 0.5 |"),
        ):
            lines = markdown_table(frame).splitlines()
            assert (lines[0], lines[-1]) == (header, row)


def _run_cleanml():
    path = Path(__file__).resolve().parents[1] / "jobs" / "run_cleanml.py"
    spec = importlib.util.spec_from_file_location("run_cleanml", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunCleanmlJob:
    def test_writes_readable_outputs(self, spark, tmp_path):
        relations = _run_cleanml().main(spark, "smoke", str(tmp_path), errors=("inconsistencies",))
        # pyarrow reads the parquet apart from Spark: 4 datasets x 4 splits
        # x 2 versions x 3 models x 1 seed x 2 variants.
        table = pq.read_table(tmp_path / "results.parquet")
        assert table.num_rows == 4 * SMOKE.n_splits * 2 * 3 * 1 * 2
        assert set(table.column("error_type").to_pylist()) == {"inconsistencies"}
        # Coalesced: a few part files, not one per unit.
        parts = list((tmp_path / "results.parquet").glob("part-*.parquet"))
        assert 0 < len(parts) <= spark.sparkContext.defaultParallelism
        # R1: 4 datasets x 1 method x 3 models x 2 scenarios.
        assert len(relations["R1"]) == 24
        for name, pdf in relations.items():
            csv = pd.read_csv(tmp_path / f"{name}.csv", float_precision="round_trip")
            pd.testing.assert_frame_equal(csv, pdf.reset_index(drop=True), check_dtype=False)
        assert (tmp_path / "PROTOCOL.txt").read_text() == repr(SMOKE) + "\n"

    def test_short_read_back_raises(self, spark, tmp_path, monkeypatch):
        from pyspark.sql.readwriter import DataFrameReader

        import repro.core.harness as harness

        read = DataFrameReader.parquet
        monkeypatch.setattr(harness, "run_grid", lambda spark, protocol, errors: spark.range(3))
        monkeypatch.setattr(DataFrameReader, "parquet", lambda self, path: read(self, path).limit(2))
        with pytest.raises(RuntimeError, match="read back 2 rows, wrote 3"):
            _run_cleanml().main(spark, "smoke", str(tmp_path), errors=("inconsistencies",))
