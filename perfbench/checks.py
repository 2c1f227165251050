"""Output checks, computed apart from the program and outside timing.

Each check raises :class:`CheckFailed` with a message naming what
differs. The references are written here from the paper's definitions
(Tables 4/5 metric pairs, the paired t-test, the BY step-up, the §4.2.2
flag rule) in DuckDB SQL and NumPy; only the registries, the query
templates and their applicability rule are shared with the program.
"""
from __future__ import annotations

import math
import re

import duckdb
import numpy as np
import pandas as pd

from repro.core.queries import QUERIES, applicable, group_attr
from repro.core.schema import R1_KEY, R2_KEY, R3_KEY
from repro.oracle import assert_equivalent

TOL = 1e-12
KEYS = {"R1": R1_KEY, "R2": R2_KEY, "R3": R3_KEY}
RELATIONS = ("R1", "R2", "R3")


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def check_results(results: pd.DataFrame, expected_rows: int) -> None:
    """Row count as the protocol implies; metrics present and in [0, 1]."""
    _require(len(results) == expected_rows, f"results: {len(results)} rows, expected {expected_rows}")
    for col in ("val_metric", "test_metric"):
        v = results[col]
        _require(not v.isna().any(), f"results.{col} has nulls")
        _require(bool(((v >= 0) & (v <= 1)).all()), f"results.{col} outside [0, 1]")


# R1 metric pairs (Tables 4 and 5) and per-spec paired statistics.
_R1_SQL = """
WITH r AS (
    SELECT *, CASE WHEN error_type = 'missing_values' THEN 'delete' ELSE 'dirty' END AS base
    FROM results
),
after AS (
    SELECT dataset, error_type, detect, repair, train_version, model, split_seed,
           avg(test_metric) AS m
    FROM r WHERE train_version <> base AND test_variant = train_version
    GROUP BY ALL
),
bd_before AS (
    SELECT dataset, error_type, model, split_seed, test_variant, avg(test_metric) AS m
    FROM r WHERE train_version = base AND test_variant <> 'dirty'
    GROUP BY ALL
),
cd_before AS (
    SELECT dataset, error_type, detect, repair, train_version, model, split_seed,
           avg(test_metric) AS m
    FROM r WHERE train_version <> base AND test_variant = 'dirty'
    GROUP BY ALL
),
pairs AS (
    SELECT a.dataset, a.error_type, a.detect, a.repair, a.model, 'BD' AS scenario,
           b.m AS before, a.m AS after
    FROM after a JOIN bd_before b
      ON a.dataset = b.dataset AND a.error_type = b.error_type AND a.model = b.model
     AND a.split_seed = b.split_seed AND b.test_variant = a.train_version
    UNION ALL
    SELECT a.dataset, a.error_type, a.detect, a.repair, a.model, 'CD' AS scenario,
           c.m AS before, a.m AS after
    FROM after a JOIN cd_before c
      USING (dataset, error_type, detect, repair, train_version, model, split_seed)
    WHERE a.error_type <> 'missing_values'
)
SELECT dataset, error_type, detect, repair, model, scenario,
       count(*) AS n_ref, avg(before) AS mean_before, avg(after) AS mean_after,
       avg(after - before) AS mean_diff, stddev_samp(after - before) AS sd
FROM pairs GROUP BY ALL
"""


def _t_abs_cdf(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer df (Abramowitz-Stegun 26.7.3/4)."""
    theta = math.atan(t / math.sqrt(df))
    s, c2 = math.sin(theta), math.cos(theta) ** 2
    if df % 2:
        term, total = 1.0, 1.0
        for k in range(1, (df - 1) // 2):
            term *= c2 * (2 * k) / (2 * k + 1)
            total += term
        inner = s * math.cos(theta) * total if df > 1 else 0.0
        return 2.0 / math.pi * (theta + inner)
    term, total = 1.0, 1.0
    for k in range(1, df // 2):
        term *= c2 * (2 * k - 1) / (2 * k)
        total += term
    return s * total


def t_pvalues(n: int, mean: float, sd: float) -> tuple[float, float, float]:
    """(two, upper, lower) p-values of a paired t-test from n, mean, sd,
    with the degenerate cases documented by repro.stats.paired_ttest."""
    if n < 2 or (sd == 0 and mean == 0):
        return 1.0, 1.0, 1.0
    if sd == 0:
        return (0.0, 0.0, 1.0) if mean > 0 else (0.0, 1.0, 0.0)
    t = mean / (sd / math.sqrt(n))
    tail = (1.0 - _t_abs_cdf(abs(t), n - 1)) / 2.0
    upper, lower = (tail, 1.0 - tail) if t > 0 else (1.0 - tail, tail)
    return min(1.0, 2.0 * min(upper, lower)), upper, lower


def check_r1_pairs(results: pd.DataFrame, r1: pd.DataFrame) -> None:
    """DuckDB recomputes every R1 spec's pairs, means and t-test."""
    con = duckdb.connect()
    try:
        con.register("results", results)
        ref = con.execute(_R1_SQL).fetchdf()
    finally:
        con.close()
    _require(len(ref) == len(r1), f"R1: {len(r1)} specs, DuckDB finds {len(ref)}")
    m = r1.merge(ref, on=R1_KEY, how="inner", suffixes=("", "_ref"))
    _require(len(m) == len(r1), f"R1: only {len(m)} of {len(r1)} specs match DuckDB's keys")
    _require(bool((m.n_pairs == m.n_ref).all()), "R1: n_pairs differs from DuckDB")
    for col in ("mean_before", "mean_after", "mean_diff"):
        err = float((m[col] - m[f"{col}_ref"]).abs().max())
        _require(err <= TOL, f"R1: {col} differs from DuckDB by {err:.3g}")
    p = np.array([t_pvalues(int(r.n_ref), r.mean_diff_ref, 0.0 if pd.isna(r.sd) else r.sd)
                  for r in m.itertuples()])
    for i, col in enumerate(("p_two", "p_upper", "p_lower")):
        err = float(np.abs(m[col].to_numpy() - p[:, i]).max())
        _require(err <= TOL, f"R1: {col} differs from the t statistic's by {err:.3g}")


def by_reference(p: np.ndarray) -> np.ndarray:
    """Benjamini-Yekutieli step-up adjusted p-values."""
    m = p.size
    if m == 0:
        return p.copy()
    order = np.argsort(p, kind="stable")
    rank = np.arange(1, m + 1)
    q = p[order] * m * np.sum(1.0 / rank) / rank
    q = np.minimum(np.minimum.accumulate(q[::-1])[::-1], 1.0)
    out = np.empty(m)
    out[order] = q
    return out


def flag_rule(two, upper, lower, alpha: float) -> np.ndarray:
    """§4.2.2: S unless p0 <= alpha; then P if p1 < alpha, N if p2 < alpha."""
    return np.select(
        [two > alpha, upper < alpha, lower < alpha], ["S", "P", "N"], default="S"
    )


def check_by_and_flags(relations: dict[str, pd.DataFrame], alpha: float) -> None:
    for name, rel in relations.items():
        for col in ("p_two", "p_upper", "p_lower"):
            ref = by_reference(rel[col].to_numpy(dtype=float))
            err = float(np.abs(rel[f"{col}_adj"].to_numpy() - ref).max(initial=0.0))
            _require(err <= TOL, f"{name}: {col}_adj differs from BY by {err:.3g}")
        want = flag_rule(rel.p_two_adj.to_numpy(), rel.p_upper_adj.to_numpy(),
                         rel.p_lower_adj.to_numpy(), alpha)
        bad = int((rel.flag.to_numpy() != want).sum())
        _require(bad == 0, f"{name}: {bad} flags break the §4.2.2 rule")


def check_counts(relations: dict[str, pd.DataFrame], expected: dict[str, int]) -> None:
    for name in RELATIONS:
        n = len(relations[name])
        _require(n == expected[name], f"{name}: {n} specs, expected {expected[name]}")
        dup = int(relations[name].duplicated(KEYS[name]).sum())
        _require(dup == 0, f"{name}: {dup} duplicate spec keys")


def check_planted(relations: dict[str, pd.DataFrame], planted: dict) -> None:
    """Every flag equals the one the planted effects imply."""
    for name in RELATIONS:
        rel = relations[name]
        got = dict(zip(map(tuple, rel[KEYS[name]].to_numpy()), rel.flag))
        _require(set(got) == set(planted[name]), f"{name}: spec keys differ from the planted frame's")
        bad = [k for k, f in planted[name].items() if got[k] != f]
        _require(not bad, f"{name}: {len(bad)} flags differ from planted, e.g. {bad[:1]}")


class _Counts:
    """Parsed Table 15 block, offered to assert_equivalent as a result frame."""

    def __init__(self, pdf: pd.DataFrame):
        self._pdf = pdf

    def toPandas(self) -> pd.DataFrame:  # noqa: N802  (Spark's name)
        return self._pdf


_BLOCK = re.compile(r"^## (\S+) \(E=(\w+)\)$")
_COUNT = re.compile(r"\((\d+)\)$")


def parse_table15(md: str) -> dict[tuple[str, str], pd.DataFrame]:
    """{(query, error type): rows (R, grp, flag, n) with n > 0}."""
    blocks: dict[tuple[str, str], list] = {}
    current = None
    for line in md.splitlines():
        hit = _BLOCK.match(line)
        if hit:
            current = blocks.setdefault((hit[1], hit[2]), [])
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if current is None or cells[0] not in RELATIONS:
            continue
        for flag, cell in zip(("P", "S", "N"), cells[2:5]):
            n = int(_COUNT.search(cell)[1])
            if n:
                current.append({"R": cells[0], "grp": cells[1], "flag": flag, "n": n})
    return {k: pd.DataFrame(v, columns=["R", "grp", "flag", "n"]) for k, v in blocks.items()}


def check_table15(md: str, relations: dict[str, pd.DataFrame], error_types) -> None:
    """Every Table 15 block's counts equal DuckDB's over the same relations."""
    blocks = parse_table15(md)
    seen = set()
    con = duckdb.connect()
    try:
        for name, rel in relations.items():
            con.register(name, rel)
        for e in error_types:
            for q in QUERIES:
                parts = []
                for rel in RELATIONS:
                    if not applicable(q, rel, e):
                        continue
                    attr = group_attr(q)
                    grp = f"CAST({attr} AS VARCHAR)" if attr else "'all'"
                    parts.append(
                        f"SELECT '{rel}' AS R, {grp} AS grp, flag, n "
                        f"FROM ({QUERIES[q].format(rel=rel, e=e)})"
                    )
                if not parts:
                    continue
                sql = " UNION ALL ".join(parts)
                if con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0] == 0:
                    continue
                _require((q, e) in blocks, f"Table 15: block {q} (E={e}) missing")
                seen.add((q, e))
                try:
                    assert_equivalent(_Counts(blocks[(q, e)]), sql, **relations)
                except AssertionError as exc:
                    raise CheckFailed(f"Table 15 {q} (E={e}) differs from DuckDB: {exc}") from exc
    finally:
        con.close()
    extra = set(blocks) - seen
    _require(not extra, f"Table 15: unexpected blocks {sorted(extra)}")


def check_reference(r1: pd.DataFrame, path) -> None:
    """Raw R1 columns equal the committed results to <= TOL (the *_adj
    columns and flags depend on the whole relation, so they are skipped)."""
    ref = pd.read_csv(path)
    m = r1.merge(ref, on=R1_KEY, how="left", suffixes=("", "_ref"), indicator=True)
    missing = int((m._merge != "both").sum())
    _require(missing == 0, f"reference: {missing} of {len(r1)} specs absent from {path}")
    _require(bool((m.n_pairs == m.n_pairs_ref).all()), "reference: n_pairs differs")
    for col in ("mean_before", "mean_after", "p_two", "p_upper", "p_lower"):
        err = float((m[col] - m[f"{col}_ref"]).abs().max())
        _require(err <= TOL, f"reference: {col} differs by {err:.3g}")
