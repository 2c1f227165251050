"""Cleaning substrate: Table 2 as detect → mask → repair.

``registry.clean_versions`` fits each detector on the training set only
(§4.1 step 2) and runs it once on train and once on test; missing
values, outliers and duplicates repair those cell masks with
``repair``'s row deletion or imputation. The modules import no Spark,
so a work unit inside the grid's ``mapInPandas`` tasks is pure
pandas/NumPy.

DuckDB oracle tests (``repro.oracle``) pin the SQL semantics of
missing-value and outlier deletion and imputation, and of dedup.
"""
from repro.cleaning.registry import (
    CleaningMethod,
    ERROR_TYPES,
    methods_for,
)

__all__ = ["CleaningMethod", "ERROR_TYPES", "methods_for"]
