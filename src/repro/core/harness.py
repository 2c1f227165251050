"""Spark harness: the experiment grid as a distributed dataflow.

The grid has one row per work unit (dataset, error_type, split_seed).
Spark gets one partition per unit, holding the unit's row index, and
``mapInPandas`` executes :func:`repro.core.runner.run_unit` for each
unit in its own task (datasets are regenerated inside the task from
their seed, so no data is shipped). The output is the long results
DataFrame the relation builders consume.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.cleaning.registry import ERROR_TYPES
from repro.core.protocol import Protocol
from repro.core.schema import RESULT_SCHEMA
from repro.datasets.registry import datasets_with_error


def build_grid(
    protocol: Protocol,
    error_types: tuple[str, ...] = ERROR_TYPES,
    datasets: tuple[str, ...] | None = None,
) -> pd.DataFrame:
    """One row per (dataset, error_type, split_seed) work unit.

    ``datasets`` optionally restricts each error type to the named
    datasets (used by tests and benchmarks; the full run passes None).
    """
    rows = [
        {"dataset": d, "error_type": e, "split_seed": s}
        for e in error_types
        for d in datasets_with_error(e)
        if datasets is None or d in datasets
        for s in protocol.split_seeds
    ]
    return pd.DataFrame(rows)


def run_grid(
    spark: SparkSession,
    protocol: Protocol,
    error_types: tuple[str, ...] = ERROR_TYPES,
    datasets: tuple[str, ...] | None = None,
) -> DataFrame:
    """Execute the whole grid on Spark; returns the results DataFrame,
    cached and materialized."""
    from repro.core.runner import run_unit

    units = build_grid(protocol, error_types, datasets)

    def _run(batches):
        for pdf in batches:
            for i in pdf["id"]:
                u = units.iloc[i]
                try:
                    out = run_unit(u.dataset, u.error_type, int(u.split_seed), protocol)
                except Exception as exc:
                    unit = f"{u.dataset}/{u.error_type}/{u.split_seed}"
                    raise RuntimeError(f"unit {unit} failed") from exc
                yield out

    # One partition per unit, so no task runs two expensive units in a
    # row while other slots idle. The ids come from the JVM: a Python
    # source (parallelize) would hold a second Python worker per task.
    ids = spark.range(len(units), numPartitions=len(units))
    out = ids.mapInPandas(_run, RESULT_SCHEMA).cache()
    out.count()
    return out
