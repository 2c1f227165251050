"""Duplicates (with DuckDB oracle), inconsistencies, mislabels, registry."""
import numpy as np
import pandas as pd
import pytest

from repro.cleaning.duplicates import (
    dedup_pandas,
    detect_duplicates_pandas,
)
from repro.cleaning.inconsistencies import (
    fingerprint,
    fit_merge_stats,
    detect_inconsistent_pandas,
    merge_pandas,
)
from repro.cleaning.mislabels import (
    TRUE_LABEL,
    detect_mislabels_pandas,
    inject_mislabels,
    repair_mislabels_pandas,
)
from repro.cleaning.registry import ERROR_TYPES, CleaningMethod, methods_for
from repro.oracle import assert_equivalent


@pytest.fixture
def dup_frame():
    return pd.DataFrame(
        {
            "key": [1, 2, 2, 3, 3, 3, 4],
            "v": [10, 20, 21, 30, 31, 32, 40],
        }
    )


class TestDuplicates:
    def test_detect_marks_later_copies(self, dup_frame):
        mask = detect_duplicates_pandas(dup_frame, ["key"])
        assert mask.tolist() == [False, False, True, False, True, True, False]

    def test_dedup_keeps_first(self, dup_frame):
        out = dedup_pandas(dup_frame, ["key"])
        assert out.v.tolist() == [10, 20, 30, 40]

    def test_dedup_against_oracle(self, dup_frame):
        pdf = dup_frame.reset_index(names="rid")
        out = dedup_pandas(pdf, ["key"])[["key", "v"]]
        assert_equivalent(
            out,
            """SELECT key, v FROM (
                 SELECT key, v, ROW_NUMBER() OVER (PARTITION BY key ORDER BY rid) rn
                 FROM t) WHERE rn = 1""",
            t=pdf,
        )

    def test_multi_column_key(self):
        pdf = pd.DataFrame({"a": [1, 1, 1], "b": ["x", "x", "y"], "v": [1, 2, 3]})
        out = dedup_pandas(pdf, ["a", "b"])
        assert out.v.tolist() == [1, 3]


class TestInconsistencies:
    def test_fingerprint_normalizes(self):
        assert fingerprint("New York!") == fingerprint("  new YORK ")
        assert fingerprint("York New") == fingerprint("new york")

    def test_fingerprint_distinct(self):
        assert fingerprint("boston") != fingerprint("new york")

    def test_merge_to_most_frequent(self):
        pdf = pd.DataFrame({"c": ["English", "English", "english!", "en"]})
        stats = fit_merge_stats(pdf, ["c"])
        out = merge_pandas(pdf, stats, ["c"])
        assert (out.c[:3] == "English").all()
        assert out.c[3] == "en"  # different fingerprint, untouched

    def test_detect_counts_variants(self):
        pdf = pd.DataFrame({"c": ["A b", "a B!", "zzz"]})
        stats = fit_merge_stats(pdf, ["c"])
        mask = detect_inconsistent_pandas(pdf, stats, ["c"])
        assert mask.sum() == 1  # exactly one of the two variants differs

    def test_unseen_test_variant_resolved_by_fingerprint(self):
        train = pd.DataFrame({"c": ["New York", "New York", "new york"]})
        stats = fit_merge_stats(train, ["c"])
        test = pd.DataFrame({"c": ["NEW YORK!!"]})
        out = merge_pandas(test, stats, ["c"])
        assert out.c[0] == "New York"

    def test_nan_preserved(self):
        train = pd.DataFrame({"c": ["a", "a", None]})
        stats = fit_merge_stats(train, ["c"])
        out = merge_pandas(train, stats, ["c"])
        assert out.c.isna().sum() == 1


@pytest.fixture
def labeled():
    rng = np.random.default_rng(0)
    return pd.DataFrame({"x": rng.normal(size=400), "y": rng.integers(0, 2, 400)})


class TestMislabels:
    def test_uniform_flips_5pct_each_class(self, labeled):
        out = inject_mislabels(labeled, "y", variant="uniform", seed=1)
        for cls in (0, 1):
            n_cls = (out[TRUE_LABEL] == cls).sum()
            flipped = ((out[TRUE_LABEL] == cls) & (out.y != cls)).sum()
            assert flipped == int(round(0.05 * n_cls))

    def test_major_flips_majority_only(self, labeled):
        out = inject_mislabels(labeled, "y", variant="major", seed=1)
        major = labeled.y.value_counts().idxmax()
        minor = 1 - major
        assert ((out[TRUE_LABEL] == minor) & (out.y != minor)).sum() == 0
        assert ((out[TRUE_LABEL] == major) & (out.y != major)).sum() > 0

    def test_minor_flips_minority_only(self, labeled):
        out = inject_mislabels(labeled, "y", variant="minor", seed=1)
        minor = labeled.y.value_counts().idxmin()
        major = 1 - minor
        assert ((out[TRUE_LABEL] == major) & (out.y != major)).sum() == 0

    def test_unknown_variant(self, labeled):
        with pytest.raises(KeyError):
            inject_mislabels(labeled, "y", variant="all", seed=0)

    def test_detect_finds_exactly_flips(self, labeled):
        out = inject_mislabels(labeled, "y", variant="uniform", seed=2)
        mask = detect_mislabels_pandas(out, "y")
        assert mask.sum() == (out.y != out[TRUE_LABEL]).sum() > 0

    def test_repair_restores_truth(self, labeled):
        out = inject_mislabels(labeled, "y", variant="uniform", seed=3)
        fixed = repair_mislabels_pandas(out, "y")
        assert (fixed.y == fixed[TRUE_LABEL]).all()

    def test_injection_deterministic(self, labeled):
        a = inject_mislabels(labeled, "y", variant="uniform", seed=5)
        b = inject_mislabels(labeled, "y", variant="uniform", seed=5)
        pd.testing.assert_frame_equal(a, b)


class TestRegistry:
    def test_five_error_types(self):
        assert len(ERROR_TYPES) == 5

    def test_missing_has_six_imputations(self):
        methods = methods_for("missing_values")
        assert len(methods) == 6
        assert all(m.detect == "empty_entry" for m in methods)

    def test_outliers_twelve_combinations(self):
        methods = methods_for("outliers")
        assert len(methods) == 12
        assert {m.detect for m in methods} == {"SD", "IQR", "IF"}
        assert len({m.repair for m in methods}) == 4

    @pytest.mark.parametrize(
        "error", ["duplicates", "inconsistencies", "mislabels"]
    )
    def test_single_method_errors(self, error):
        assert len(methods_for(error)) == 1

    def test_method_name(self):
        m = CleaningMethod("outliers", "SD", "delete")
        assert m.name == "outliers:SD:delete"

    def test_unknown_error_type(self):
        with pytest.raises(KeyError):
            methods_for("typos")
