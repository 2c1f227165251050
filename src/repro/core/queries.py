"""The CleanML analysis queries Q1-Q5 (paper §2.2).

Each query counts one error type's flags in a relation per value of one
attribute. `QUERIES` holds the paper's SQL as the specification;
`flag_counts` computes the same counts in pandas over a relation (at
most a few thousand specs), and the tests and the benchmark run the SQL
in DuckDB as its oracle.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.cleaning.registry import methods_for
from repro.core.schema import scenarios_for

FLAGS = ("P", "S", "N")

_GROUP_ATTR = {
    "Q1": None,
    "Q2": "scenario",
    "Q3": "model",
    "Q4.1": "detect",
    "Q4.2": "repair",
    "Q5": "dataset",
}

# Paper query template, verbatim modulo column-name spelling.
_TEMPLATE = """
    SELECT {cols}flag, COUNT(*) AS n
    FROM {{rel}} WHERE error_type = '{{e}}'
    GROUP BY {cols}flag
"""

QUERIES = {
    q: _TEMPLATE.format(cols=f"{attr}, " if attr else "")
    for q, attr in _GROUP_ATTR.items()
}


def register_relations(
    spark: SparkSession, relations: dict[str, pd.DataFrame]
) -> dict[str, DataFrame]:
    """Create temp views R1/R2/R3 from the flagged relations."""
    out = {}
    for name, pdf in relations.items():
        sdf = spark.createDataFrame(pdf)
        sdf.createOrReplaceTempView(name)
        out[name] = sdf
    return out


def applicable(query: str, relation: str, error_type: str) -> bool:
    """Paper applicability rules: Q3 (per model) only for R1, the one
    relation that keeps the model; Q4 (per detect / repair method) not
    for R3, which keeps no method, and only where Table 2 gives the
    error type more than one; Q2 only where it has more than one scenario."""
    if query == "Q3":
        return relation == "R1"
    if query in ("Q4.1", "Q4.2"):
        attr = _GROUP_ATTR[query]
        methods = {getattr(m, attr) for m in methods_for(error_type)}
        return relation != "R3" and len(methods) > 1
    if query == "Q2":
        return len(scenarios_for(error_type)) > 1
    return True


def flag_counts(relation: pd.DataFrame, query: str, error_type: str) -> pd.DataFrame:
    """What ``QUERIES[query]`` counts, as a table: one row per group value
    (``'all'`` for Q1), one column per flag P/S/N; no rows when the
    relation has no spec of ``error_type``."""
    rows = relation[relation.error_type == error_type]
    attr = _GROUP_ATTR[query]
    group = rows[attr] if attr else pd.Series("all", index=rows.index)
    return pd.crosstab(group, rows.flag).reindex(columns=list(FLAGS), fill_value=0)


def group_attr(query: str) -> str | None:
    return _GROUP_ATTR[query]
