"""Duplicates (with DuckDB oracle), inconsistencies, mislabels, registry."""
import numpy as np
import pandas as pd
import pytest

from repro.cleaning.duplicates import detect_duplicates
from repro.cleaning.inconsistencies import detect_inconsistencies, fingerprint, fit_canonical
from repro.cleaning.mislabels import TRUE_LABEL, detect_mislabels, inject_mislabels
from repro.cleaning.registry import ERROR_TYPES, methods_for
from repro.cleaning.repair import delete_rows, impute
from repro.oracle import assert_equivalent


@pytest.fixture
def dup_frame():
    return pd.DataFrame(
        {
            "key": [1, 2, 2, 3, 3, 3, 4],
            "v": [10, 20, 21, 30, 31, 32, 40],
        }
    )


def dedup(pdf, key_cols):
    return delete_rows(pdf, detect_duplicates(pdf, key_cols))


def merge(pdf, canonical):
    return impute(pdf, *detect_inconsistencies(pdf, canonical))


class TestDuplicates:
    def test_detect_marks_later_copies(self, dup_frame):
        mask = detect_duplicates(dup_frame, ["key"])["key"]
        assert mask.tolist() == [False, False, True, False, True, True, False]

    def test_dedup_keeps_first(self, dup_frame):
        out = dedup(dup_frame, ["key"])
        assert out.v.tolist() == [10, 20, 30, 40]

    def test_dedup_against_oracle(self, dup_frame):
        pdf = dup_frame.reset_index(names="rid")
        out = dedup(pdf, ["key"])[["key", "v"]]
        assert_equivalent(
            out,
            """SELECT key, v FROM (
                 SELECT key, v, ROW_NUMBER() OVER (PARTITION BY key ORDER BY rid) rn
                 FROM t) WHERE rn = 1""",
            t=pdf,
        )

    def test_multi_column_key(self):
        pdf = pd.DataFrame({"a": [1, 1, 1], "b": ["x", "x", "y"], "v": [1, 2, 3]})
        out = dedup(pdf, ["a", "b"])
        assert out.v.tolist() == [1, 3]


class TestInconsistencies:
    def test_fingerprint_normalizes(self):
        assert fingerprint("New York!") == fingerprint("  new YORK ")
        assert fingerprint("York New") == fingerprint("new york")

    def test_fingerprint_distinct(self):
        assert fingerprint("boston") != fingerprint("new york")

    def test_merge_to_most_frequent(self):
        pdf = pd.DataFrame({"c": ["English", "English", "english!", "en"]})
        out = merge(pdf, fit_canonical(pdf, ["c"]))
        assert (out.c[:3] == "English").all()
        assert out.c[3] == "en"  # different fingerprint, untouched

    def test_detect_counts_variants(self):
        pdf = pd.DataFrame({"c": ["A b", "a B!", "zzz"]})
        mask, _ = detect_inconsistencies(pdf, fit_canonical(pdf, ["c"]))
        assert mask.c.sum() == 1  # exactly one of the two variants differs

    def test_unseen_test_variant_resolved_by_fingerprint(self):
        train = pd.DataFrame({"c": ["New York", "New York", "new york"]})
        test = pd.DataFrame({"c": ["NEW YORK!!"]})
        out = merge(test, fit_canonical(train, ["c"]))
        assert out.c[0] == "New York"

    def test_nan_preserved(self):
        train = pd.DataFrame({"c": ["a", "a", None]})
        out = merge(train, fit_canonical(train, ["c"]))
        assert out.c.isna().sum() == 1

    def test_mask_flags_exactly_the_variants(self):
        """Missing cells and canonical values are never flagged; every
        variant is, including one seen only in test, and a tie goes to
        the lexicographically smaller variant."""
        train = pd.DataFrame({"c": ["New York", "new york", "New York", "boston", None, "Boston"]})
        canonical = fit_canonical(train, ["c"])
        test = pd.DataFrame({"c": ["NEW YORK!!", None, "New York", "Boston", "boston", "chicago"]})
        mask, fill = detect_inconsistencies(test, canonical)
        assert mask.c.tolist() == [True, False, False, False, True, False]
        assert fill["c"][mask.c].tolist() == ["New York", "Boston"]
        mask, _ = detect_inconsistencies(train, canonical)
        assert mask.c.tolist() == [False, True, False, True, False, False]


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
        mask, _ = detect_mislabels(out, "y")
        assert mask.y.sum() == (out.y != out[TRUE_LABEL]).sum() > 0

    def test_repair_restores_truth(self, labeled):
        out = inject_mislabels(labeled, "y", variant="uniform", seed=3)
        fixed = impute(out, *detect_mislabels(out, "y"))
        assert (fixed.y == fixed[TRUE_LABEL]).all()

    def test_flip_restores_labels_before_injection(self, labeled):
        flipped = inject_mislabels(labeled, "y", variant="major", seed=4)
        fixed = impute(flipped, *detect_mislabels(flipped, "y"))
        pd.testing.assert_series_equal(fixed.y, labeled.y)
        assert list(fixed.columns) == ["x", "y", TRUE_LABEL]

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

    def test_unknown_error_type(self):
        with pytest.raises(KeyError):
            methods_for("typos")
