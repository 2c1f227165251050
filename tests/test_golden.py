"""Golden tests: the committed results/R{1,2,3}.csv (FULL protocol) are
the reference that any change to the grid or the relations must
reproduce to floating-point noise. Split 100's cleaned versions and
fitted tree models are pinned by digest; ``python tests/test_golden.py``
re-records both digest files."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.cleaning.outliers import fit_outlier_detector
from repro.cleaning.registry import ERROR_TYPES
from repro.core.harness import run_grid
from repro.core.protocol import FULL
from repro.core.queries import register_relations
from repro.core.relations import _apply_by_and_flags, build_relations
from repro.core.report import table15_markdown
from repro.core.runner import _unit_seed, build_versions, split_frame
from repro.core.schema import DIRTY, R1_KEY, R2_KEY, R3_KEY
from repro.datasets.registry import datasets_with_error, load_dataset, spec_for
from repro.ml.features import Featurizer, downsample_majority
from repro.ml.models import make_model, sample_params

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"
KEYS = {"R1": R1_KEY, "R2": R2_KEY, "R3": R3_KEY}
RAW = ["mean_before", "mean_after", "mean_diff", "p_two", "p_upper", "p_lower"]
TOL = 1e-12
VERSIONS = Path(__file__).with_name("golden_versions.json")
TREES = Path(__file__).with_name("golden_trees.json")
# Numeric-only, imbalanced, categorical and text features.
TREE_DATASETS = ("EEG", "Credit", "Airbnb", "USCensus", "Movie")
TREE_MODELS = ("decision_tree", "random_forest", "adaboost", "xgboost")


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
            train, test = split_frame(load_dataset(name), split_seed)
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


def _hash_tree(h, tree) -> None:
    for a in (tree.feat, tree.thr, tree.left, tree.right, tree.value, tree.roots):
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())


def _tree_digests(split_seed: int = 100) -> dict:
    """SHA-256 per (model, dataset) over two random-search draws' fitted
    trees and test predictions, trained on split 100's dirty training
    set as ``run_unit`` featurizes it; and per outlier dataset over the
    isolation forest ``run_unit`` grows: its trees, threshold and train
    flags."""
    out = {}
    for name in TREE_DATASETS:
        spec = spec_for(name)
        train, test = split_frame(load_dataset(name), split_seed)
        if spec.imbalanced:
            train = downsample_majority(train, spec.label, _unit_seed(name, split_seed, DIRTY))
        feat = Featurizer(
            numeric=list(spec.numeric), categorical=list(spec.categorical), text=list(spec.text)
        ).fit(train)
        X, Xt = feat.transform(train), feat.transform(test)
        y = train[spec.label].to_numpy(dtype=np.int64)
        for model in TREE_MODELS:
            rng = np.random.default_rng(split_seed)
            h = hashlib.sha256()
            for _ in range(2):
                fitted = make_model(model, sample_params(model, rng), seed=split_seed).fit(X, y)
                _hash_tree(h, fitted.tree_ if model == "decision_tree" else fitted.trees_)
                h.update(fitted.predict(Xt).tobytes())
            out[f"{model}/{name}"] = h.hexdigest()
    for name in datasets_with_error("outliers"):
        spec = spec_for(name)
        train, _ = split_frame(load_dataset(name), split_seed)
        seed = _unit_seed(name, split_seed, "if")
        forest = fit_outlier_detector(train, list(spec.numeric), "IF", seed=seed).forest
        h = hashlib.sha256()
        _hash_tree(h, forest.trees_)
        h.update(np.float64(forest.threshold_).tobytes())
        h.update(forest.train_outlier_.tobytes())
        out[f"isolation_forest/{name}"] = h.hexdigest()
    return out


def test_tree_models_unchanged():
    """DT, RF, AdaBoost and XGBoost-lite fits on five datasets, and the
    isolation forest on every outlier dataset, hash as recorded: tree
    arrays and their dtypes, test predictions, IF threshold and flags."""
    assert _tree_digests() == json.loads(TREES.read_text())


if __name__ == "__main__":  # re-record after a change meant to move them
    pairs = (
        f" {json.dumps(k)}: [\n" + ",\n".join(f"  {json.dumps(e)}" for e in v) + "]"
        for k, v in _version_digests().items()
    )
    VERSIONS.write_text("{\n" + ",\n".join(pairs) + "\n}\n")
    TREES.write_text(json.dumps(_tree_digests(), indent=1) + "\n")
