"""Run the full CleanML benchmark grid and persist results + relations.

    spark-submit jobs/run_cleanml.py [--protocol full|smoke|paper] \
        [--out results/] [--errors outliers,mislabels,...]

Writes ``results/results.parquet`` (the long per-fit results
DataFrame), ``results/R{1,2,3}.csv`` (the flagged relations), and
prints flag counts. `jobs/table15.py` turns the CSVs into the Table 15
report. The parquet is a local output: it is not committed (see
``.gitignore``), and it is read back once after writing, which raises
unless it holds as many rows as were written; the committed record of a
run is the CSVs and ``PROTOCOL.txt``.
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def main(spark, protocol_name: str, out_dir: str, errors=None) -> dict:
    from repro.cleaning.registry import ERROR_TYPES
    from repro.core.harness import run_grid
    from repro.core.protocol import FULL, PAPER, SMOKE
    from repro.core.relations import build_relations

    protocol = {"full": FULL, "smoke": SMOKE, "paper": PAPER}[protocol_name]
    error_types = tuple(errors) if errors else ERROR_TYPES
    os.makedirs(out_dir, exist_ok=True)

    results = run_grid(spark, protocol, error_types)
    path = os.path.join(out_dir, "results.parquet")
    # A few part files, not one per unit: the grid has one partition per unit.
    results.coalesce(spark.sparkContext.defaultParallelism).write.mode("overwrite").parquet(path)
    n_rows, n_read = results.count(), spark.read.parquet(path).count()
    if n_read != n_rows:
        raise RuntimeError(f"{path}: read back {n_read} rows, wrote {n_rows}")
    print(f"results: {n_rows} rows")

    relations = build_relations(results, alpha=protocol.alpha)
    for name, pdf in relations.items():
        pdf.to_csv(os.path.join(out_dir, f"{name}.csv"), index=False)
        print(name, len(pdf), dict(pdf.flag.value_counts()))
    with open(os.path.join(out_dir, "PROTOCOL.txt"), "w") as fh:
        fh.write(repr(protocol) + "\n")
    return relations


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--protocol", default="full", choices=["full", "smoke", "paper"])
    ap.add_argument("--out", default="results")
    ap.add_argument("--errors", default="")
    args = ap.parse_args()
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("cleanml-grid")
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    errors = tuple(e for e in args.errors.split(",") if e) or None
    main(spark, args.protocol, args.out, errors)
    spark.stop()
