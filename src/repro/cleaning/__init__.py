"""Cleaning substrate: Table 2 detect/repair methods.

Every method exists in two equivalent forms sharing one fitted stats
object (statistics always computed on the training set, §4.1 step 2):

* a **Spark DataFrame transform** (Column expressions, window
  functions, aggregations) — the production dataflow path, and
* a **pandas twin** used inside ``mapInPandas`` tasks by the grid
  harness, where per-unit frames are a few hundred rows.

Cross-form equivalence is covered by tests per error type.
"""
from repro.cleaning.registry import (
    CleaningMethod,
    ERROR_TYPES,
    methods_for,
)

__all__ = ["CleaningMethod", "ERROR_TYPES", "methods_for"]
