"""Reproduce the paper's worked example (Tables 6-14): EEG, outliers,
IQR detection + mean imputation, scenario BD.

    spark-submit jobs/example_eeg.py [--splits 8]

Prints, in order: the s1/s2/s3 specifications (Table 6), the s1 metric
pair per model (Tables 7-8), the cleaning-method selection table
(Table 9), the per-seed random-search aggregation (Tables 10-11), the
per-split metric pairs (Table 12), and the raw + BY-corrected t-test
p-values (Tables 13-14).
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def main(spark, n_splits: int = 8) -> dict:
    import dataclasses

    import pandas as pd

    from repro.core import relations
    from repro.core.harness import run_grid
    from repro.core.protocol import FULL
    from repro.core.report import markdown_table

    protocol = dataclasses.replace(FULL, n_splits=n_splits)
    print("## Table 6 — experiment specifications")
    print("s1: (EEG, outliers, IQR, mean imputation, logistic_regression, BD)")
    print("s2: (EEG, outliers, IQR, mean imputation, BD)")
    print("s3: (EEG, outliers, BD)\n")

    results = run_grid(
        spark, protocol, error_types=("outliers",), datasets=("EEG",)
    ).cache()

    iqr_mean = results.where(
        f"split_seed = {protocol.split_seed0}"
        " AND train_version IN ('dirty', 'IQR:impute_mean')"
        " AND test_variant = 'IQR:impute_mean'"
    ).toPandas()
    t78 = (
        iqr_mean.groupby(["model", "train_version"])
        .agg(val=("val_metric", "max"), test=("test_metric", "mean"))
        .reset_index()
        .pivot(index="model", columns="train_version", values=["val", "test"])
    )
    t78.columns = [f"{a}_{b}" for a, b in t78.columns]
    print("## Tables 7-8 — per-model metrics, split seed "
          f"{protocol.split_seed0} (B = dirty-trained, D = clean-trained)")
    print(markdown_table(t78.reset_index().round(6)))

    pairs_r2 = relations.build_pairs_r2(results).cache()
    t9 = (
        pairs_r2.where(f"split_seed = {protocol.split_seed0} AND scenario = 'BD'")
        .toPandas()[["detect", "repair", "after_val", "before_metric", "after_metric"]]
        .sort_values(["detect", "repair"])
    )
    print("\n## Table 9 — cleaning-method selection (validation of the "
          "clean-trained best model; best row becomes s3's pair)")
    print(markdown_table(t9.round(6)))

    seeds = iqr_mean[iqr_mean.model == "logistic_regression"].pivot_table(
        index="search_seed",
        columns="train_version",
        values=["val_metric", "test_metric"],
    )
    seeds.columns = [f"{a}_{b}" for a, b in seeds.columns]
    print("\n## Tables 10-11 — aggregation over random-search seeds (s1 averages, s2 takes best-validation)")
    print(markdown_table(seeds.reset_index().round(6)))

    pairs_r1 = relations.build_pairs_r1(results)
    s1 = pairs_r1.where(
        "model = 'logistic_regression' AND scenario = 'BD' "
        "AND detect = 'IQR' AND repair = 'impute_mean'"
    ).toPandas().sort_values("split_seed")
    print("\n## Table 12 — per-split metric pairs for s1 (B, D)")
    print(markdown_table(s1[["split_seed", "before_metric", "after_metric"]].round(6)))

    # Tables 13-14: s1's row of R1, whose BY family is all EEG-outlier R1 specs.
    r1 = relations.build_relations(results)["R1"]
    row = r1[
        (r1.model == "logistic_regression") & (r1.scenario == "BD")
        & (r1.detect == "IQR") & (r1.repair == "impute_mean")
    ].iloc[0]
    tests = ["two-tailed", "upper-tailed", "lower-tailed"]
    cols = ["p_two", "p_upper", "p_lower"]
    print("\n## Table 13 — raw p-values for s1")
    print(markdown_table(pd.DataFrame({"test": tests, "p": row[cols].tolist()})))
    print("\n## Table 14 — BY-corrected p-values for s1 "
          f"(family = {len(r1)} EEG-outlier hypotheses)")
    print(markdown_table(pd.DataFrame(
        {"test": tests, "corrected p": row[[f"{c}_adj" for c in cols]].tolist()})))

    pairs_r3 = relations.build_pairs_r3(pairs_r2)
    s3 = pairs_r3.where("scenario = 'BD'").toPandas()
    print("\n## s3 selected methods per split")
    print(markdown_table(
        s3[["split_seed", "detect", "repair", "before_metric", "after_metric"]]
        .sort_values("split_seed").round(6)))
    return {"s1_pairs": s1, "method_table": t9}


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--splits", type=int, default=8)
    args = ap.parse_args()
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("cleanml-example")
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    main(spark, args.splits)
    spark.stop()
