"""Golden tests: the committed results/R{1,2,3}.csv (FULL protocol) are
the reference that any change to the grid or the relations must
reproduce to floating-point noise."""
import json
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.cleaning.registry import ERROR_TYPES
from repro.core.harness import run_grid
from repro.core.protocol import FULL
from repro.core.queries import register_relations
from repro.core.relations import _apply_by_and_flags, build_relations
from repro.core.report import table15_markdown
from repro.core.runner import _unit_seed, build_versions, split_frame
from repro.core.schema import R1_KEY, R2_KEY, R3_KEY
from repro.datasets.registry import datasets_with_error, load_dataset, spec_for

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
KEYS = {"R1": R1_KEY, "R2": R2_KEY, "R3": R3_KEY}
RAW = ["mean_before", "mean_after", "mean_diff", "p_two", "p_upper", "p_lower"]
TOL = 1e-12
VERSIONS = Path(__file__).with_name("golden_versions.json")


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


def _version_digests(split_seed: int = 100) -> dict:
    """Per (error type, dataset): every ``build_versions`` frame in order,
    as (side, label, columns, dtypes, row-hash sum), with the seed
    ``run_unit`` gives the isolation forest."""
    out = {}
    for error in ERROR_TYPES:
        for name in datasets_with_error(error):
            train, test = split_frame(load_dataset(name), split_seed, FULL.test_frac)
            seed = _unit_seed(name, split_seed, "if")
            sides = build_versions(spec_for(name), error, train, test, seed=seed)
            out[f"{error}/{name}"] = [
                [side, label, list(frame.columns), [str(t) for t in frame.dtypes],
                 int(pd.util.hash_pandas_object(frame, index=True).sum())]
                for side, versions in zip(("train", "test"), sides)
                for label, frame in versions.items()
            ]
    return out


def test_cleaned_versions_unchanged():
    """Every cleaned training version and test variant of split 100, for
    all 28 (error type, dataset) pairs, hashes as recorded: labels and
    their order, columns, dtypes and values."""
    assert _version_digests() == json.loads(VERSIONS.read_text())


if __name__ == "__main__":  # re-record after a change meant to move them
    pairs = (
        f" {json.dumps(k)}: [\n" + ",\n".join(f"  {json.dumps(e)}" for e in v) + "]"
        for k, v in _version_digests().items()
    )
    VERSIONS.write_text("{\n" + ",\n".join(pairs) + "\n}\n")
