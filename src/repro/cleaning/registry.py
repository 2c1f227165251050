"""Registry of error types and cleaning methods (paper Table 2).

The one owner of each error type's method layout: which (detect,
repair) methods exist, the label each gives its training version and
test variant in the results, and how each is detected and repaired.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import pandas as pd

from repro.cleaning import inconsistencies as inc
from repro.cleaning import missing as mv
from repro.cleaning import outliers as out
from repro.cleaning.duplicates import detect_duplicates
from repro.cleaning.mislabels import detect_mislabels
from repro.cleaning.repair import delete_rows, impute, inlier_stats
from repro.datasets.base import DatasetSpec

ERROR_TYPES = (
    "missing_values",
    "outliers",
    "duplicates",
    "inconsistencies",
    "mislabels",
)

OUTLIER_DETECTORS = ("SD", "IQR", "IF")
OUTLIER_REPAIRS = ("delete", "impute_mean", "impute_median", "impute_mode")

# Table 2: error type -> (detectors, repairs); each pair is one method.
_TABLE2 = {
    "missing_values": (("empty_entry",), mv.MISSING_IMPUTATIONS),
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
    it is not returned here; ``clean_versions`` builds the deletion
    version as the "before" side.
    """
    if error_type not in _TABLE2:
        raise KeyError(f"unknown error type {error_type!r}")
    detectors, repairs = _TABLE2[error_type]
    return tuple(
        CleaningMethod(error_type, det, rep) for det in detectors for rep in repairs
    )


def clean_versions(
    spec: DatasetSpec,
    error_type: str,
    train: pd.DataFrame,
    test: pd.DataFrame,
    *,
    seed: int = 0,
) -> tuple[pd.DataFrame, list[tuple[CleaningMethod, pd.DataFrame, pd.DataFrame]]]:
    """The baseline training version, and ``(method, cleaned train,
    cleaned test)`` for every method of ``methods_for(error_type)``, in order.

    Each detector is fitted once on the dirty ``train`` (§4.1 step 2;
    ``seed`` seeds the isolation forest) and masks each frame once; its
    repairs share the two masks: row deletion, or imputation with values
    fitted on ``train``. The baseline is ``train``, or for missing values
    its deletion version from the same mask.
    """
    methods = methods_for(error_type)
    frames = (train, test)
    numeric, categorical = list(spec.numeric), list(spec.categorical)
    if error_type == "missing_values":
        masks = [mv.detect_missing(f, numeric + categorical) for f in frames]
        fills = mv.fit_imputations(train, masks[0], numeric, categorical)
        versions = [(m, *map(partial(impute, fill=fills[m.repair]), frames, masks)) for m in methods]
        return delete_rows(train, masks[0]), versions
    if error_type == "outliers":
        versions = []
        for detect in OUTLIER_DETECTORS:
            detector = out.fit_outlier_detector(train, numeric, detect, seed=seed)
            masks = [detector.train_cells, detector.cells(test)]
            repairs = {"delete": delete_rows} | {
                f"impute_{stat}": partial(impute, fill=fill)
                for stat, fill in inlier_stats(train, masks[0]).items()
            }
            versions += [
                (m, *map(repairs[m.repair], frames, masks)) for m in methods if m.detect == detect
            ]
        return train, versions
    if error_type == "duplicates":
        masks = [detect_duplicates(f, list(spec.key_cols)) for f in frames]
        return train, [(methods[0], *map(delete_rows, frames, masks))]
    if error_type == "inconsistencies":
        canonical = inc.fit_canonical(train, list(spec.inconsistent_cols))
        detected = [inc.detect_inconsistencies(f, canonical) for f in frames]
    else:  # mislabels
        detected = [detect_mislabels(f, spec.label) for f in frames]
    return train, [(methods[0], *(impute(f, *d) for f, d in zip(frames, detected)))]
