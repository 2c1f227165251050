"""Relation-builder tests on a hand-constructed results DataFrame with
known metric values, so every pair/selection is checkable by hand."""
import itertools

import pandas as pd
import pytest

from repro.core.relations import (
    build_pairs_r1,
    build_pairs_r2,
    build_pairs_r3,
    build_relations,
)
from repro.core.schema import R1_KEY, R2_KEY, R3_KEY

MODELS = ["m1", "m2"]
SEEDS = [1, 2]
SPLITS = [100, 101, 102, 103]
METHODS = {"SD:delete": ("SD", "delete"), "IQR:delete": ("IQR", "delete")}


def _metric(train_version, model, seed, variant):
    """Deterministic synthetic metric with known structure.

    Clean-trained models gain +0.10 on clean test; m2 beats m1 by 0.02;
    seed 2 beats seed 1 by 0.01; IQR-trained models gain another 0.05.
    """
    base = 0.60
    if train_version != "dirty" and variant == train_version:
        base += 0.10
    if train_version.startswith("IQR") and variant == train_version:
        base += 0.05
    if model == "m2":
        base += 0.02
    if seed == 2:
        base += 0.01
    return base


def _val(train_version, model, seed):
    v = 0.70 + (0.02 if model == "m2" else 0.0) + (0.01 if seed == 2 else 0.0)
    if train_version.startswith("IQR"):
        v += 0.05
    return v


@pytest.fixture(scope="module")
def results(spark):
    rows = []
    versions = ["dirty"] + list(METHODS)
    variants = ["dirty"] + list(METHODS)
    for version, model, seed, split, variant in itertools.product(
        versions, MODELS, SEEDS, SPLITS, variants
    ):
        det, rep = METHODS.get(version, ("none", "none"))
        rows.append(
            {
                "dataset": "D",
                "error_type": "outliers",
                "detect": det,
                "repair": rep,
                "split_seed": split,
                "train_version": version,
                "model": model,
                "search_seed": seed,
                "test_variant": variant,
                "val_metric": _val(version, model, seed),
                "test_metric": _metric(version, model, seed, variant),
            }
        )
    return spark.createDataFrame(pd.DataFrame(rows)).cache()


class TestR1Pairs:
    def test_bd_pair_values(self, results):
        pairs = build_pairs_r1(results).toPandas()
        row = pairs[
            (pairs.scenario == "BD")
            & (pairs.model == "m1")
            & (pairs.detect == "SD")
            & (pairs.split_seed == 100)
        ].iloc[0]
        # before: dirty-trained m1 on SD test, seed-avg of 0.60 and 0.61.
        assert row.before_metric == pytest.approx(0.605)
        # after: SD-trained m1 on SD test, seed-avg of 0.70 and 0.71.
        assert row.after_metric == pytest.approx(0.705)

    def test_cd_pair_values(self, results):
        pairs = build_pairs_r1(results).toPandas()
        row = pairs[
            (pairs.scenario == "CD")
            & (pairs.model == "m2")
            & (pairs.detect == "IQR")
            & (pairs.split_seed == 101)
        ].iloc[0]
        # before: IQR-trained m2 on dirty test = avg(0.62, 0.63).
        assert row.before_metric == pytest.approx(0.625)
        # after: IQR-trained m2 on IQR test = avg(0.77, 0.78).
        assert row.after_metric == pytest.approx(0.775)

    def test_pair_count(self, results):
        pairs = build_pairs_r1(results).toPandas()
        # 2 methods x 2 models x 2 scenarios x 4 splits.
        assert len(pairs) == 32


class TestR2Pairs:
    def test_selects_best_model_and_seed(self, results):
        pairs = build_pairs_r2(results).toPandas()
        row = pairs[
            (pairs.scenario == "BD")
            & (pairs.detect == "SD")
            & (pairs.split_seed == 100)
        ].iloc[0]
        # best by val on both sides is (m2, seed 2):
        assert row.before_metric == pytest.approx(0.63)
        assert row.after_metric == pytest.approx(0.73)
        assert row.after_val == pytest.approx(0.73)  # SD side: 0.70+0.02+0.01

    def test_pair_count(self, results):
        pairs = build_pairs_r2(results).toPandas()
        # 2 methods x 2 scenarios x 4 splits.
        assert len(pairs) == 16


class TestR3Pairs:
    def test_selects_best_method_by_validation(self, results):
        r3 = build_pairs_r3(build_pairs_r2(results)).toPandas()
        # IQR-trained side has val +0.05, so IQR must win everywhere.
        assert (r3.detect == "IQR").all()
        assert len(r3) == 8  # 2 scenarios x 4 splits


class TestBuildRelations:
    @pytest.fixture(scope="class")
    def rel(self, results):
        return build_relations(results, alpha=0.05)

    def test_flags_positive_everywhere(self, rel):
        # The synthetic metrics improve by ~0.1 with zero variance
        # across splits, so every hypothesis must be flagged P.
        for name in ("R1", "R2", "R3"):
            assert (rel[name].flag == "P").all(), name

    def test_relation_sizes(self, rel):
        assert len(rel["R1"]) == 8   # 2 methods x 2 models x 2 scenarios
        assert len(rel["R2"]) == 4   # 2 methods x 2 scenarios
        assert len(rel["R3"]) == 2   # 2 scenarios

    def test_r1_contains_pvalue_columns(self, rel):
        r1 = rel["R1"]
        for col in ("p_two", "p_upper", "p_lower", "p_two_adj", "flag",
                    "mean_before", "mean_after", "n_pairs"):
            assert col in r1.columns
        assert (r1.n_pairs == len(SPLITS)).all()

    def test_sorted_by_key_under_any_partitioning(self, results, rel):
        """Each relation comes back sorted by its key, so one partition
        gives the same frames as the fixture's several."""
        assert results.rdd.getNumPartitions() > 1
        one = build_relations(results.repartition(1), alpha=0.05)
        for name, key in (("R1", R1_KEY), ("R2", R2_KEY), ("R3", R3_KEY)):
            pd.testing.assert_frame_equal(rel[name], rel[name].sort_values(key, ignore_index=True))
            pd.testing.assert_frame_equal(one[name], rel[name], check_exact=False, rtol=1e-12, atol=0)


class TestMissingValuesSemantics:
    @pytest.fixture(scope="class")
    def mv_results(self, spark):
        rows = []
        for version in ["delete", "mean_mode"]:
            for split in SPLITS:
                rows.append(
                    {
                        "dataset": "D",
                        "error_type": "missing_values",
                        "detect": "empty_entry",
                        "repair": "delete" if version == "delete" else version,
                        "split_seed": split,
                        "train_version": version,
                        "model": "m1",
                        "search_seed": 1,
                        "test_variant": "mean_mode",
                        "val_metric": 0.7,
                        "test_metric": 0.6 if version == "delete" else 0.68,
                    }
                )
        return spark.createDataFrame(pd.DataFrame(rows))

    def test_bd_only_with_delete_baseline(self, mv_results):
        pairs = build_pairs_r1(mv_results).toPandas()
        assert set(pairs.scenario) == {"BD"}
        assert pairs.before_metric.unique().tolist() == [pytest.approx(0.6)]
        assert pairs.after_metric.unique().tolist() == [pytest.approx(0.68)]


class TestDegenerateSpecs:
    """Specs whose split differences have no spread, through the Spark
    aggregation of build_relations: one dataset per case."""

    SPLITS_BY_DATASET = {"Single": [100], "Constant": SPLITS, "Zero": SPLITS}

    @pytest.fixture(scope="class")
    def rel(self, spark):
        rows = []
        for dataset, splits in self.SPLITS_BY_DATASET.items():
            for version, split, variant in itertools.product(
                ["dirty", "SD:delete"], splits, ["dirty", "SD:delete"]
            ):
                gain = dataset != "Zero" and version == variant == "SD:delete"
                rows.append(
                    {
                        "dataset": dataset,
                        "error_type": "outliers",
                        "detect": "SD" if version != "dirty" else "none",
                        "repair": "delete" if version != "dirty" else "none",
                        "split_seed": split,
                        "train_version": version,
                        "model": "m1",
                        "search_seed": 1,
                        "test_variant": variant,
                        "val_metric": 0.7,
                        "test_metric": 0.7 if gain else 0.6,
                    }
                )
        return build_relations(spark.createDataFrame(pd.DataFrame(rows)), alpha=0.05)

    @staticmethod
    def _rows(rel, dataset):
        return [r[r.dataset == dataset] for r in rel.values()]

    def test_single_split(self, rel):
        for r in self._rows(rel, "Single"):
            assert (r.n_pairs == 1).all()
            for col in ("p_two", "p_upper", "p_lower"):
                assert (r[col] == 1.0).all(), col
            assert (r.flag == "S").all()

    def test_identical_nonzero_differences(self, rel):
        for r in self._rows(rel, "Constant"):
            assert len(r) == 2  # BD and CD
            assert (r.mean_diff > 0).all()
            assert (r.p_two == 0.0).all() and (r.p_upper == 0.0).all()
            assert (r.p_lower == 1.0).all()
            assert (r.flag == "P").all()

    def test_all_zero_differences(self, rel):
        for r in self._rows(rel, "Zero"):
            assert len(r) == 2
            assert (r.mean_diff == 0.0).all()
            for col in ("p_two", "p_upper", "p_lower"):
                assert (r[col] == 1.0).all(), col
            assert (r.flag == "S").all()
