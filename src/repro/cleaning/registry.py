"""Registry of error types and cleaning methods (paper Table 2).

The one owner of each error type's method layout: which (detect,
repair) methods exist, the label each gives its training version and
test variant in the results, and how their statistics are fitted.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import pandas as pd

from repro.cleaning import inconsistencies as inc
from repro.cleaning import missing as mv
from repro.cleaning import outliers as out
from repro.cleaning.duplicates import dedup_pandas
from repro.cleaning.mislabels import repair_mislabels_pandas
from repro.datasets.base import DatasetSpec

ERROR_TYPES = (
    "missing_values",
    "outliers",
    "duplicates",
    "inconsistencies",
    "mislabels",
)

# Imputation method names follow the paper: "<numeric> <categorical>"
# e.g. mean_mode = numeric mean + categorical mode; *_dummy uses the
# dedicated "missing" category for categoricals.
MISSING_IMPUTATIONS = (
    "mean_mode",
    "median_mode",
    "mode_mode",
    "mean_dummy",
    "median_dummy",
    "mode_dummy",
)

OUTLIER_DETECTORS = ("SD", "IQR", "IF")
OUTLIER_REPAIRS = ("delete", "impute_mean", "impute_median", "impute_mode")

# Table 2: error type -> (detectors, repairs); each pair is one method.
_TABLE2 = {
    "missing_values": (("empty_entry",), MISSING_IMPUTATIONS),
    "outliers": (OUTLIER_DETECTORS, OUTLIER_REPAIRS),
    "duplicates": (("key_collision",), ("delete",)),
    "inconsistencies": (("openrefine_fingerprint",), ("merge",)),
    "mislabels": (("ground_truth",), ("flip",)),
}


@dataclass(frozen=True)
class CleaningMethod:
    """One (detect, repair) combination for an error type."""

    error_type: str
    detect: str
    repair: str

    @property
    def name(self) -> str:
        return f"{self.error_type}:{self.detect}:{self.repair}"

    @property
    def label(self) -> str:
        """The method's training-version and test-variant label in the
        results (missing values have one detector, so the repair alone)."""
        if self.error_type == "missing_values":
            return self.repair
        return f"{self.detect}:{self.repair}"


def methods_for(error_type: str) -> tuple[CleaningMethod, ...]:
    """All cleaning methods of Table 2 for one error type.

    For missing values the ``delete`` repair is the comparison baseline
    (case "B" in Table 5) rather than a cleaning method under test, so
    it is not returned here; the runner adds the deletion version as
    the "before" side.
    """
    if error_type not in _TABLE2:
        raise KeyError(f"unknown error type {error_type!r}")
    detectors, repairs = _TABLE2[error_type]
    return tuple(
        CleaningMethod(error_type, det, rep) for det in detectors for rep in repairs
    )


def fit_cleaners(
    spec: DatasetSpec, error_type: str, train: pd.DataFrame, *, seed: int = 0
) -> list[tuple[CleaningMethod, Callable[[pd.DataFrame], pd.DataFrame]]]:
    """``(method, clean)`` for every method of ``methods_for(error_type)``.

    ``clean(pdf)`` applies the method to a train or test frame with
    statistics fitted on the dirty ``train`` only (§4.1 step 2). Each
    detector is fitted once and shared by its repairs: one imputation
    fit, one merge fit, one fit per outlier detector (``seed`` seeds the
    isolation forest).
    """
    methods = methods_for(error_type)
    numeric, categorical = list(spec.numeric), list(spec.categorical)
    if error_type == "missing_values":
        stats = mv.fit_impute_stats(train, numeric, categorical)
        cleaners = [
            partial(mv.impute_pandas, stats=stats, numeric=numeric, categorical=categorical,
                    num_method=num_m, cat_method=cat_m)
            for num_m, cat_m in (mv.split_repair(m.repair) for m in methods)
        ]
    elif error_type == "outliers":
        fitted = {d: out.fit_outlier_stats(train, numeric, d, seed=seed) for d in OUTLIER_DETECTORS}
        cleaners = [
            partial(out.repair_pandas, stats=fitted[m.detect], repair=m.repair) for m in methods
        ]
    elif error_type == "duplicates":
        cleaners = [partial(dedup_pandas, key_cols=list(spec.key_cols))]
    elif error_type == "inconsistencies":
        cols = list(spec.inconsistent_cols)
        cleaners = [partial(inc.merge_pandas, stats=inc.fit_merge_stats(train, cols), cols=cols)]
    else:  # mislabels
        cleaners = [partial(repair_mislabels_pandas, label=spec.label)]
    return list(zip(methods, cleaners, strict=True))
