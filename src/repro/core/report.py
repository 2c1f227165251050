"""Render benchmark outputs in the paper's table layouts.

`table15_markdown` reproduces Table 15's structure: for each error
type, the Q1-Q5 flag-share blocks over R1/R2/R3, counted in pandas by
`queries.flag_counts` from one collect of each relation view. Individual
markdown helpers avoid a dependency on `tabulate`.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.cleaning.registry import ERROR_TYPES
from repro.core.queries import FLAGS, QUERIES, applicable, flag_counts

RELATIONS = ("R1", "R2", "R3")


def markdown_table(pdf: pd.DataFrame) -> str:
    """Minimal GitHub-markdown renderer for a pandas frame."""
    cols = list(pdf.columns)
    lines = ["| " + " | ".join(str(c) for c in cols) + " |"]
    lines.append("|" + "|".join("---" for _ in cols) + "|")
    for row in pdf.itertuples(index=False):  # keeps each column's dtype
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def share_rows(relation: str, counts: pd.DataFrame) -> list[list]:
    """One relation's rows of a Table 15 block: relation, group, then each
    flag as '% (n)', the share of the group's specs with that flag."""
    shares = counts.div(counts.sum(axis=1), axis=0)
    return [
        [relation, group]
        + [f"{100 * s:.2f}% ({n})" for n, s in zip(counts.loc[group], shares.loc[group])]
        for group in counts.index
    ]


def table15_markdown(spark: SparkSession, error_types=ERROR_TYPES) -> str:
    """The full Table 15 report over registered relation views."""
    relations = {r: spark.table(r).toPandas() for r in RELATIONS}
    out = ["# Table 15 — Benchmark Results (organized by query)\n"]
    for e in error_types:
        for q in QUERIES:
            rows = [
                row
                for r in RELATIONS
                if applicable(q, r, e)
                for row in share_rows(r, flag_counts(relations[r], q, e))
            ]
            if rows:
                out.append(f"\n## {q} (E={e})\n")
                out.append(markdown_table(pd.DataFrame(rows, columns=["R", "group", *FLAGS])))
    return "\n".join(out) + "\n"
