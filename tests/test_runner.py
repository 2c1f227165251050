"""Tests for the work-unit runner: splits, version building, execution."""
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

import repro
from repro.cleaning import inconsistencies, missing, outliers
from repro.cleaning.mislabels import TRUE_LABEL
from repro.cleaning.registry import ERROR_TYPES, methods_for
from repro.core.protocol import SMOKE, Protocol
from repro.core.runner import build_versions, run_unit, split_frame
from repro.core.schema import (
    DELETE_BASELINE,
    DIRTY,
    RESULT_COLUMNS,
    baseline_for,
    scenarios_for,
)
from repro.datasets import load_dataset, spec_for

TINY = dataclasses.replace(
    SMOKE, models=("naive_bayes",), search_seeds=(8006,), n_candidates=1
)


class TestImportBoundary:
    def test_import_loads_no_pyspark(self):
        """A work unit is pure pandas/NumPy: importing the runner must not
        load pyspark (a Spark twin in the per-unit path would)."""
        probe = (
            "import sys, repro.core.runner; "
            "print(sorted(m for m in sys.modules if m.startswith('pyspark')))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestSplit:
    def test_ratio(self):
        pdf = pd.DataFrame({"x": range(100)})
        train, test = split_frame(pdf, 0, 0.3)
        assert len(train) == 70 and len(test) == 30

    def test_disjoint_and_complete(self):
        pdf = pd.DataFrame({"x": range(50)})
        train, test = split_frame(pdf, 1, 0.3)
        assert set(train.x) | set(test.x) == set(range(50))
        assert set(train.x) & set(test.x) == set()

    def test_deterministic(self):
        pdf = pd.DataFrame({"x": range(40)})
        t1, _ = split_frame(pdf, 5, 0.3)
        t2, _ = split_frame(pdf, 5, 0.3)
        pd.testing.assert_frame_equal(t1, t2)

    def test_different_seeds_differ(self):
        pdf = pd.DataFrame({"x": range(40)})
        t1, _ = split_frame(pdf, 1, 0.3)
        t2, _ = split_frame(pdf, 2, 0.3)
        assert not t1.x.tolist() == t2.x.tolist()


class TestSchemaRules:
    def test_baseline_for(self):
        assert baseline_for("missing_values") == "delete"
        assert baseline_for("outliers") == "dirty"

    def test_scenarios_for(self):
        assert scenarios_for("missing_values") == ("BD",)
        assert scenarios_for("duplicates") == ("BD", "CD")


class TestBuildVersions:
    def _mk(self, name, error):
        spec = spec_for(name)
        pdf = load_dataset(name)
        train, test = split_frame(pdf, 3, 0.3)
        return spec, *build_versions(spec, error, train, test, seed=0)

    def test_missing_values_versions(self):
        spec, tv, xv = self._mk("Titanic", "missing_values")
        assert set(tv) == {
            "delete", "mean_mode", "median_mode", "mode_mode",
            "mean_dummy", "median_dummy", "mode_dummy",
        }
        assert "dirty" not in xv  # no dirty test variant for MV
        assert not tv["delete"][list(spec.feature_cols)].isna().any().any()
        assert not tv["mean_mode"][list(spec.feature_cols)].isna().any().any()

    def test_outlier_versions(self):
        spec, tv, xv = self._mk("Sensor", "outliers")
        assert len(tv) == 13  # dirty + 3 detectors x 4 repairs
        assert set(xv) == set(tv)
        assert len(tv["SD:delete"]) < len(tv["dirty"])
        assert len(tv["SD:impute_mean"]) == len(tv["dirty"])

    def test_duplicate_versions(self):
        spec, tv, xv = self._mk("Citation", "duplicates")
        clean = tv["key_collision:delete"]
        assert not clean.duplicated(subset=list(spec.key_cols)).any()
        assert len(clean) < len(tv["dirty"])

    def test_inconsistency_versions(self):
        spec, tv, xv = self._mk("University", "inconsistencies")
        merged = tv["openrefine_fingerprint:merge"]
        for c in spec.inconsistent_cols:
            assert merged[c].nunique() < tv["dirty"][c].nunique()

    def test_mislabel_versions(self):
        spec, tv, xv = self._mk("EEG_uniform", "mislabels")
        clean = tv["ground_truth:flip"]
        assert (clean[spec.label] == clean[TRUE_LABEL]).all()
        assert (tv["dirty"][spec.label] != tv["dirty"][TRUE_LABEL]).any()

    def test_unknown_error(self):
        spec = spec_for("EEG")
        with pytest.raises(KeyError):
            build_versions(spec, "typos", load_dataset("EEG"), load_dataset("EEG"))


# One small dataset per error type.
LAYOUT_DATASET = {
    "missing_values": "Titanic",
    "outliers": "Sensor",
    "duplicates": "Citation",
    "inconsistencies": "University",
    "mislabels": "EEG_uniform",
}


def _versions(dataset, error):
    train, test = split_frame(load_dataset(dataset), 3, 0.3)
    return build_versions(spec_for(dataset), error, train, test, seed=0)


class TestLayout:
    """The registry's methods are the whole experiment layout: the
    runner builds exactly their versions plus the schema's baseline."""

    @pytest.mark.parametrize("error", ERROR_TYPES)
    def test_versions_rows_and_labels(self, error):
        methods = methods_for(error)
        labels = {m.label for m in methods}
        # The relations tell baseline rows from method rows by label.
        assert not labels & {DIRTY, DELETE_BASELINE}
        assert len(labels) == len(methods)

        tv, xv = _versions(LAYOUT_DATASET[error], error)
        assert set(tv) == {baseline_for(error)} | labels
        dirty = {DIRTY} if "CD" in scenarios_for(error) else set()
        assert set(xv) == labels | dirty

        out = run_unit(LAYOUT_DATASET[error], error, 100, TINY)
        baseline_pair = {"dirty": ("none", "none"), "delete": ("empty_entry", "delete")}
        expected = {(m.label, m.detect, m.repair) for m in methods}
        expected.add((baseline_for(error), *baseline_pair[baseline_for(error)]))
        assert set(zip(out.train_version, out.detect, out.repair)) == expected

    @pytest.mark.parametrize(
        "error, module, fit, n_fits",
        [
            ("outliers", outliers, "fit_outlier_stats", 3),
            ("missing_values", missing, "fit_impute_stats", 1),
            ("inconsistencies", inconsistencies, "fit_merge_stats", 1),
        ],
    )
    def test_fits_once_per_detector(self, monkeypatch, error, module, fit, n_fits):
        """Repairs share their detector's fit: a fit per method would grow
        the isolation forest four times per outliers unit."""
        calls = []
        real = getattr(module, fit)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, fit, counted)
        _versions(LAYOUT_DATASET[error], error)
        assert len(calls) == n_fits


class TestRunUnit:
    def test_output_schema(self):
        out = run_unit("Citation", "duplicates", 100, TINY)
        assert list(out.columns) == RESULT_COLUMNS
        assert (out.dataset == "Citation").all()

    def test_row_count(self):
        out = run_unit("Citation", "duplicates", 100, TINY)
        # 2 train versions x 1 model x 1 seed x 2 test variants
        assert len(out) == 4

    def test_metrics_in_unit_interval(self):
        out = run_unit("Titanic", "missing_values", 101, TINY)
        assert out.test_metric.between(0, 1).all()
        assert out.val_metric.between(0, 1).all()

    def test_deterministic(self):
        a = run_unit("University", "inconsistencies", 102, TINY)
        b = run_unit("University", "inconsistencies", 102, TINY)
        pd.testing.assert_frame_equal(a, b)

    def test_missing_values_has_no_dirty_variant(self):
        out = run_unit("Titanic", "missing_values", 103, TINY)
        assert "dirty" not in set(out.test_variant)
        assert set(out.train_version) == {
            "delete", "mean_mode", "median_mode", "mode_mode",
            "mean_dummy", "median_dummy", "mode_dummy",
        }

    def test_imbalanced_uses_f1_and_downsampling(self):
        out = run_unit("KDD_uniform", "mislabels", 104, TINY)
        # F1 on an 11%-minority task cannot hit the accuracy range of ~0.9
        assert out.test_metric.max() < 0.95

    def test_detect_repair_metadata(self):
        out = run_unit("Sensor", "outliers", 105, TINY)
        dirty = out[out.train_version == "dirty"]
        assert (dirty.detect == "none").all()
        sd = out[out.train_version == "SD:impute_mean"]
        assert (sd.detect == "SD").all() and (sd.repair == "impute_mean").all()
