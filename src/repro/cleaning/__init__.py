"""Cleaning substrate: Table 2 as detect → mask → repair.

``registry.clean_versions`` fits each detector on the training set only
(§4.1 step 2) and masks train and test once each; every error type is
cleaned by ``repair``'s row deletion or imputation of those cell masks.
The modules import no Spark, so a work unit inside the grid's
``mapInPandas`` tasks is pure pandas/NumPy.

DuckDB oracle tests (``repro.oracle``) pin the SQL semantics of
missing-value and outlier deletion and imputation, and of dedup.
"""
