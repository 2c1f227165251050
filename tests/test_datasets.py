"""Tests for the 13 synthetic datasets + 9 mislabel variants:
determinism, schema/role integrity, Table 3 error profiles, and
learnability (a model must beat chance so cleaning effects can show)."""
import numpy as np
import pandas as pd
import pytest

from repro.cleaning.inconsistencies import fingerprint
from repro.cleaning.mislabels import TRUE_LABEL
from repro.cleaning.registry import ERROR_TYPES
from repro.datasets import (
    DATASETS,
    dataset_names,
    datasets_with_error,
    load_dataset,
    spec_for,
)

ALL = sorted(dataset_names())
BASE = [n for n in ALL if "_" not in n]
VARIANTS = [n for n in ALL if "_" in n]


@pytest.mark.parametrize("name", ALL)
class TestEveryDataset:
    def test_deterministic(self, name):
        a = DATASETS[name].generate()
        b = DATASETS[name].generate()
        pd.testing.assert_frame_equal(a, b)

    def test_label_is_binary(self, name):
        pdf = load_dataset(name)
        assert set(pdf[spec_for(name).label].unique()) <= {0, 1}

    def test_declared_columns_exist(self, name):
        spec = spec_for(name)
        pdf = load_dataset(name)
        for c in spec.feature_cols + (spec.label,):
            assert c in pdf.columns

    def test_numeric_columns_numeric(self, name):
        spec = spec_for(name)
        pdf = load_dataset(name)
        for c in spec.numeric:
            assert pdf[c].dtype.kind in "fiu", (c, pdf[c].dtype)

    def test_both_classes_present(self, name):
        spec = spec_for(name)
        pdf = load_dataset(name)
        counts = pdf[spec.label].value_counts()
        assert len(counts) == 2
        assert counts.min() >= 20

    def test_reasonable_size(self, name):
        assert 200 <= len(load_dataset(name)) <= 2000


@pytest.mark.parametrize("name", BASE)
class TestBaseDatasets:
    def test_error_types_valid(self, name):
        assert set(spec_for(name).error_types) <= set(ERROR_TYPES)

    def test_missing_values_present_iff_declared(self, name):
        spec = spec_for(name)
        pdf = load_dataset(name)
        has_na = pdf[list(spec.feature_cols)].isna().any().any()
        assert has_na == ("missing_values" in spec.error_types)

    def test_duplicates_present_iff_declared(self, name):
        spec = spec_for(name)
        pdf = load_dataset(name)
        if "duplicates" in spec.error_types:
            assert pdf.duplicated(subset=list(spec.key_cols)).mean() > 0.05
        elif spec.key_cols:
            assert not pdf.duplicated(subset=list(spec.key_cols)).any()

    def test_inconsistencies_present_iff_declared(self, name):
        spec = spec_for(name)
        pdf = load_dataset(name)
        if "inconsistencies" not in spec.error_types:
            return
        found = False
        for c in spec.inconsistent_cols:
            vals = pdf[c].dropna().astype(str)
            fps = vals.map(fingerprint)
            found |= fps.nunique() < vals.nunique()
        assert found, "declared inconsistent columns have no variant pairs"


class TestTable3Profile:
    """The dataset x error matrix must match the paper's Table 3."""

    EXPECTED = {
        "missing_values": {"Airbnb", "Credit", "KDD", "Marketing", "Titanic", "USCensus"},
        "outliers": {"Airbnb", "Credit", "EEG", "KDD", "Sensor"},
        "duplicates": {"Airbnb", "Citation", "Movie", "Restaurant"},
        "inconsistencies": {"Company", "Movie", "Restaurant", "University"},
    }

    @pytest.mark.parametrize("error", sorted(EXPECTED))
    def test_matrix_matches_paper(self, error):
        assert set(datasets_with_error(error)) == self.EXPECTED[error]

    def test_mislabel_variants(self):
        got = set(datasets_with_error("mislabels"))
        assert got == {
            f"{b}_{v}"
            for b in ("EEG", "KDD", "USCensus")
            for v in ("uniform", "major", "minor")
        }

    def test_thirteen_base_datasets(self):
        assert len(BASE) == 13

    def test_imbalanced_flagged(self):
        assert spec_for("Credit").imbalanced
        assert spec_for("KDD").imbalanced
        assert not spec_for("EEG").imbalanced

    def test_metric_selection(self):
        assert spec_for("Credit").metric == "f1"
        assert spec_for("Titanic").metric == "accuracy"


@pytest.mark.parametrize("name", VARIANTS)
class TestMislabelVariants:
    def test_truth_column_present(self, name):
        pdf = load_dataset(name)
        assert TRUE_LABEL in pdf.columns

    def test_flip_rate_about_5pct(self, name):
        spec = spec_for(name)
        pdf = load_dataset(name)
        flips = (pdf[spec.label] != pdf[TRUE_LABEL]).mean()
        base = pdf[TRUE_LABEL].value_counts(normalize=True)
        variant = name.split("_")[1]
        expected = 0.05 if variant == "uniform" else 0.05 * (
            base.max() if variant == "major" else base.min()
        )
        assert flips == pytest.approx(expected, abs=0.01)

    def test_error_type_is_mislabels_only(self, name):
        assert spec_for(name).error_types == ("mislabels",)


class TestLearnability:
    """A simple model must beat chance on the clean signal, otherwise
    cleaning effects cannot be observed at all."""

    @pytest.mark.parametrize("name", BASE)
    def test_logreg_beats_chance(self, name):
        from repro.core.runner import split_frame
        from repro.ml.features import Featurizer, downsample_majority
        from repro.ml.metrics import metric_fn
        from repro.ml.models import make_model

        spec = spec_for(name)
        pdf = load_dataset(name)
        train, test = split_frame(pdf, 7, 0.3)
        if spec.imbalanced:
            train = downsample_majority(train, spec.label, 0)
        feat = Featurizer(
            numeric=list(spec.numeric),
            categorical=list(spec.categorical),
            text=list(spec.text),
        ).fit(train)
        model = make_model("logistic_regression").fit(
            feat.transform(train), train[spec.label].to_numpy()
        )
        pred = model.predict(feat.transform(test))
        score = metric_fn(spec.metric)(test[spec.label].to_numpy(), pred)
        floor = 0.25 if spec.imbalanced else 0.58
        assert score > floor, f"{name}: {spec.metric}={score:.3f}"
