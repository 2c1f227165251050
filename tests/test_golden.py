"""Golden tests: the committed results/R{1,2,3}.csv (FULL protocol) are
the reference that any change to the grid or the relations must
reproduce to floating-point noise."""
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core.harness import run_grid
from repro.core.protocol import FULL
from repro.core.queries import register_relations
from repro.core.relations import _apply_by_and_flags, build_relations
from repro.core.report import table15_markdown
from repro.core.schema import R1_KEY, R2_KEY, R3_KEY

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
KEYS = {"R1": R1_KEY, "R2": R2_KEY, "R3": R3_KEY}
RAW = ["mean_before", "mean_after", "mean_diff", "p_two", "p_upper", "p_lower"]
TOL = 1e-12


def _committed(name: str) -> pd.DataFrame:
    return pd.read_csv(RESULTS / f"{name}.csv", float_precision="round_trip")


@pytest.mark.parametrize("name", sorted(KEYS))
def test_by_and_flags_reproduce_committed(name):
    """BY and the flag rule, re-applied to the committed raw p-values,
    give the committed adjusted p-values and flags."""
    committed = _committed(name)
    got = _apply_by_and_flags(committed[[*KEYS[name], "n_pairs", *RAW]], FULL.alpha)
    for col in ("p_two_adj", "p_upper_adj", "p_lower_adj"):
        np.testing.assert_allclose(got[col], committed[col], rtol=0, atol=TOL, err_msg=col)
    assert (got.flag == committed.flag).all()


@pytest.fixture(scope="module")
def university(spark):
    results = run_grid(spark, FULL, ("inconsistencies",), ("University",))
    try:
        yield build_relations(results, alpha=FULL.alpha)
    finally:
        results.unpersist()


@pytest.mark.parametrize("name", sorted(KEYS))
def test_rerun_matches_committed(university, name):
    """A FULL rerun of inconsistencies/University reproduces its specs'
    raw columns. (BY, and so the flags, depend on the whole relation.)"""
    committed = _committed(name)
    committed = committed[
        (committed.dataset == "University") & (committed.error_type == "inconsistencies")
    ]
    got = university[name]
    assert len(got) == len(committed) > 0
    m = got.merge(committed, on=KEYS[name], suffixes=("", "_ref"))
    assert len(m) == len(committed)
    assert (m.n_pairs == m.n_pairs_ref).all()
    for col in RAW:
        np.testing.assert_allclose(m[col], m[f"{col}_ref"], rtol=0, atol=TOL, err_msg=col)


def test_table15_reproduces_committed_report(spark):
    """Table 15 rendered from the committed relations is the committed
    report, byte for byte (`perfbench/checks.parse_table15` reads this
    layout)."""
    register_relations(spark, {name: _committed(name) for name in sorted(KEYS)})
    md = table15_markdown(spark)
    assert md.encode() == (ROOT / "reports" / "table15.md").read_bytes()
