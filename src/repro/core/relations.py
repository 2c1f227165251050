"""Build the CleanML relations R1/R2/R3 from the results DataFrame.

The pipeline is Spark-native end to end:

1. **Metric pairs** per (spec, split) are assembled by one builder that
   joins the "before" and "after" slices of the results DataFrame
   (Table 4/5 semantics, per scenario).
2. **Seed aggregation** (§4.2.1): R1 averages both sides over the
   random-search seeds; R2/R3 select the best (model, seed) by
   validation metric via window functions.
3. **Cleaning-method selection** for R3 (§4.1) picks the method whose
   selected clean-side model has the best validation metric.
4. **t-tests** (§4.2.2): one Spark aggregation per relation reduces each
   spec's split pairs to the count, means and sample standard deviation
   of the differences, from which
   :func:`repro.stats.ttest_from_moments` computes the p-values. The
   **BY correction** (§4.3) runs per relation and test type, and flags
   follow the paper's decision rule.
"""
from __future__ import annotations

from collections.abc import Callable

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.core.schema import DELETE_BASELINE, DIRTY, R1_KEY, R2_KEY, R3_KEY
from repro.stats import by_adjust, decide_flag, ttest_from_moments

# Identifies a cleaning method's training version within a dataset.
_METHOD = ["dataset", "error_type", "detect", "repair", "train_version"]


def _seed_average(rows: DataFrame, by: list[str]) -> DataFrame:
    return rows.groupBy(*by).agg(
        F.avg("test_metric").alias("test_metric"),
        F.avg("val_metric").alias("val_metric"),
    )


def _best_by_validation(rows: DataFrame, by: list[str]) -> DataFrame:
    w = Window.partitionBy(*by).orderBy(
        F.desc("val_metric"), F.asc("model"), F.asc("search_seed")
    )
    return rows.withColumn("__rn", F.row_number().over(w)).where(F.col("__rn") == 1)


def _pairs(
    results: DataFrame,
    reduce: Callable[[DataFrame, list[str]], DataFrame],
    per_model: list[str],
) -> DataFrame:
    """BD and CD metric pairs per (spec, split).

    BD: before = baseline-trained model on the cleaned test variant,
        after = clean-trained model on the same variant.
    CD: before = clean-trained model on the dirty test set,
        after = the same model on its cleaned test variant; only where
        the results hold a dirty test variant (none for missing values).

    ``reduce(rows, by)`` collapses the random-search fits of each ``by``
    group to one row with its test_metric and val_metric. ``per_model``
    is ``["model"]`` to pair each model with itself, or ``[]`` to let
    ``reduce`` choose among the models on each side.
    """
    # No cleaning method's label is a baseline label (a test pins it).
    baseline = F.col("train_version").isin(DIRTY, DELETE_BASELINE)
    method = results.where(~baseline)
    by = [*_METHOD, *per_model, "split_seed"]
    after = reduce(method.where(F.col("test_variant") == F.col("train_version")), by).select(
        *by,
        F.col("test_metric").alias("after_metric"),
        F.col("val_metric").alias("after_val"),
    )

    bd_by = ["dataset", "error_type", *per_model, "split_seed"]
    before_bd = reduce(
        results.where(baseline & (F.col("test_variant") != DIRTY)),
        [*bd_by, "test_variant"],
    ).select(
        *bd_by,
        F.col("test_variant").alias("train_version"),
        F.col("test_metric").alias("before_metric"),
    )
    bd = after.join(before_bd, on=[*bd_by, "train_version"]).withColumn(
        "scenario", F.lit("BD")
    )

    before_cd = reduce(method.where(F.col("test_variant") == DIRTY), by).select(
        *by, F.col("test_metric").alias("before_metric")
    )
    cd = after.join(before_cd, on=by).withColumn("scenario", F.lit("CD"))
    cols = [*_METHOD, *per_model, "scenario", "split_seed",
            "before_metric", "after_metric", "after_val"]
    return bd.select(*cols).unionByName(cd.select(*cols))


def build_pairs_r1(results: DataFrame) -> DataFrame:
    """R1 metric pairs: seed-averaged (before, after) per spec, model and
    split."""
    return _pairs(results, _seed_average, ["model"]).drop("after_val")


def build_pairs_r2(results: DataFrame) -> DataFrame:
    """R2 metric pairs: per split, pick the best (model, seed) on each
    side by validation metric (§4.2.1 / Table 8, 11)."""
    return _pairs(results, _best_by_validation, [])


def build_pairs_r3(pairs_r2: DataFrame) -> DataFrame:
    """R3 pairs: per (dataset, error, scenario, split) keep the cleaning
    method whose clean-side validation metric is best (Table 9)."""
    w = Window.partitionBy("dataset", "error_type", "scenario", "split_seed").orderBy(
        F.desc("after_val"), F.asc("detect"), F.asc("repair")
    )
    return (
        pairs_r2.withColumn("__rn", F.row_number().over(w))
        .where(F.col("__rn") == 1)
        .drop("__rn")
    )


def _ttests(pairs: DataFrame, key: list[str]) -> pd.DataFrame:
    """Per spec: pair count, means and the three t-tests over its splits."""
    d = F.col("after_metric") - F.col("before_metric")
    tested = (
        pairs.groupBy(*key)
        .agg(
            F.count(F.lit(1)).cast("int").alias("n_pairs"),
            F.avg("before_metric").alias("mean_before"),
            F.avg("after_metric").alias("mean_after"),
            F.avg(d).alias("mean_diff"),
            F.stddev_samp(d).alias("sd_diff"),
        )
        .toPandas()
    )
    # Spark returns the groups in no fixed order; sort by key so the
    # relation is the same however the results are partitioned.
    tested = tested.sort_values(key, ignore_index=True)
    tests = [
        ttest_from_moments(r.n_pairs, r.mean_diff, r.sd_diff)
        for r in tested.itertuples()
    ]
    for col in ("p_two", "p_upper", "p_lower"):
        tested[col] = [getattr(t, col) for t in tests]
    return tested.drop(columns="sd_diff")


def _apply_by_and_flags(tested: pd.DataFrame, alpha: float) -> pd.DataFrame:
    """BY-adjust each test type across the relation, then flag."""
    out = tested.copy()
    for col in ("p_two", "p_upper", "p_lower"):
        out[f"{col}_adj"] = by_adjust(out[col].to_numpy()) if len(out) else []
    out["flag"] = [
        decide_flag(r.p_two_adj, r.p_upper_adj, r.p_lower_adj, alpha).value
        for r in out.itertuples()
    ]
    return out


def build_relations(results: DataFrame, alpha: float = 0.05) -> dict[str, pd.DataFrame]:
    """Full §4 pipeline: results -> flagged R1, R2, R3 (as pandas), each
    sorted by its key."""
    # run_grid leaves one partition per work unit, and each scan of the
    # results costs per partition; one partition per core is enough.
    results = results.coalesce(results.sparkSession.sparkContext.defaultParallelism)
    # R3 selects from the R2 pairs without caching them: Spark keeps a
    # cached plan's shuffle partitions uncoalesced, and scanning those
    # measured slower than recomputing the pairs.
    pairs_r2 = build_pairs_r2(results)
    pairs = (build_pairs_r1(results), pairs_r2, build_pairs_r3(pairs_r2))
    return {
        name: _apply_by_and_flags(_ttests(p, key), alpha)
        for name, p, key in zip(("R1", "R2", "R3"), pairs, (R1_KEY, R2_KEY, R3_KEY))
    }
