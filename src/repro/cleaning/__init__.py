"""Cleaning substrate: Table 2 detect/repair methods.

Every method is a pandas function over one unit's frame, paired with a
stats object fitted on the training set only (§4.1 step 2) and applied
to train and test alike. The grid runs them inside ``mapInPandas``
tasks, where per-unit frames are a few hundred to a few thousand rows;
the modules import no Spark, so a work unit is pure pandas/NumPy.

DuckDB oracle tests (``repro.oracle``) pin the SQL semantics of
missing-value and outlier deletion and imputation, and of dedup.
"""
from repro.cleaning.registry import (
    CleaningMethod,
    ERROR_TYPES,
    methods_for,
)

__all__ = ["CleaningMethod", "ERROR_TYPES", "methods_for"]
