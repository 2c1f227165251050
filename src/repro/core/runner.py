"""One work unit of the benchmark: (dataset, error type, split seed).

Implements §4.1's metric-pair generation for *all* cleaning methods and
models of the unit at once: split 70/30, fit every cleaning detector
on the (dirty) training set, produce every cleaned training
version and test variant, then random-search and fit every model on
every training version and score it on every test variant. The
resulting long-format rows are all the harness needs to assemble the
BD/CD metric pairs of R1, R2 and R3 afterwards.

Runs in plain pandas/NumPy so the Spark harness can execute thousands
of units in parallel, one per ``mapInPandas`` task.
"""
from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

from repro.cleaning.registry import clean_versions, methods_for
from repro.core.protocol import Protocol
from repro.core.schema import BASELINE_METHODS, DIRTY, RESULT_COLUMNS, baseline_for, scenarios_for
from repro.datasets.base import DatasetSpec
from repro.datasets.registry import load_dataset, spec_for
from repro.ml.features import Featurizer, downsample_majority
from repro.ml.metrics import metric_fn
from repro.ml.search import random_search


TEST_FRAC = 0.30


def split_frame(pdf: pd.DataFrame, seed: int):
    """70/30 random split (paper §4.1 step 1), deterministic in seed."""
    rng = np.random.default_rng(seed)
    n = len(pdf)
    perm = rng.permutation(n)
    n_test = int(round(TEST_FRAC * n))
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    train = pdf.iloc[np.sort(train_idx)].reset_index(drop=True)
    test = pdf.iloc[np.sort(test_idx)].reset_index(drop=True)
    return train, test


def build_versions(
    spec: DatasetSpec,
    error_type: str,
    train: pd.DataFrame,
    test: pd.DataFrame,
    *,
    seed: int = 0,
):
    """All cleaned training versions and test variants for one split.

    Returns ``(train_versions, test_variants)``, both dicts keyed by
    version label: the baseline training version, a dirty test variant
    where scenario CD applies, and one of each per cleaning method.
    Cleaning statistics are fitted on the dirty training set only and
    reused for the test set (§4.1 step 2, no leakage).
    """
    baseline, versions = clean_versions(spec, error_type, train, test, seed=seed)
    train_versions = {baseline_for(error_type): baseline}
    test_variants = {DIRTY: test} if "CD" in scenarios_for(error_type) else {}
    for method, train_v, test_v in versions:
        train_versions[method.label] = train_v
        test_variants[method.label] = test_v
    return train_versions, test_variants


def _unit_seed(dataset: str, split_seed: int, extra: str = "") -> int:
    return zlib.crc32(f"{dataset}|{split_seed}|{extra}".encode()) % (2**31)


def run_unit(
    dataset: str,
    error_type: str,
    split_seed: int,
    protocol: Protocol,
) -> pd.DataFrame:
    """Execute one unit; returns long-format result rows."""
    spec = spec_for(dataset)
    pdf = load_dataset(dataset)
    train, test = split_frame(pdf, split_seed)
    train_versions, test_variants = build_versions(
        spec, error_type, train, test, seed=_unit_seed(dataset, split_seed, "if")
    )
    meta = BASELINE_METHODS | {m.label: (m.detect, m.repair) for m in methods_for(error_type)}
    metric = spec.metric
    rows: list[dict] = []
    for version, train_v in train_versions.items():
        detect, repair = meta[version]
        train_fit = train_v
        if spec.imbalanced:
            train_fit = downsample_majority(
                train_v, spec.label, _unit_seed(dataset, split_seed, version)
            )
        feat = Featurizer(
            numeric=list(spec.numeric),
            categorical=list(spec.categorical),
            text=list(spec.text),
        ).fit(train_fit)
        X = feat.transform(train_fit)
        y = train_fit[spec.label].to_numpy(dtype=np.int64)
        # Pre-featurize every test variant once per training version
        # (the featurizer belongs to the trained model's pipeline).
        tests = {
            name: (feat.transform(t), t[spec.label].to_numpy(dtype=np.int64))
            for name, t in test_variants.items()
        }
        for model_name in protocol.models:
            for search_seed in protocol.search_seeds:
                model, val_score = random_search(
                    model_name,
                    X,
                    y,
                    seed=search_seed + _unit_seed(dataset, split_seed, version) % 9973,
                    n_candidates=protocol.n_candidates,
                    metric=metric,
                )
                score = metric_fn(metric)
                for variant, (Xt, yt) in tests.items():
                    pred = model.predict(Xt)
                    rows.append(
                        {
                            "dataset": dataset,
                            "error_type": error_type,
                            "detect": detect,
                            "repair": repair,
                            "split_seed": int(split_seed),
                            "train_version": version,
                            "model": model_name,
                            "search_seed": int(search_seed),
                            "test_variant": variant,
                            "val_metric": val_score,
                            "test_metric": float(score(yt, pred)),
                        }
                    )
    return pd.DataFrame(rows, columns=RESULT_COLUMNS)
