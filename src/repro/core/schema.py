"""CleanML relational schema constants (paper §2.1, Tables 1, 4, 5).

Scenario "BD" compares a model trained on the dirty vs. cleaned
training set, both evaluated on the cleaned test set; "CD" compares
one clean-trained model on the dirty vs. cleaned test set. Missing
values replace "dirty" with the deletion dataset (Table 5) and only
admit scenario BD.
"""

SCENARIOS = ("BD", "CD")

# The "before" training version per error type (Table 4 vs Table 5).
DIRTY = "dirty"
DELETE_BASELINE = "delete"
# (detect, repair) recorded on each baseline training version's rows.
BASELINE_METHODS = {DIRTY: ("none", "none"), DELETE_BASELINE: ("empty_entry", "delete")}


def baseline_for(error_type: str) -> str:
    """Training-set version that plays the 'before' role."""
    return DELETE_BASELINE if error_type == "missing_values" else DIRTY


def scenarios_for(error_type: str) -> tuple[str, ...]:
    """Valid scenarios per error type (§3.4: missing values are BD-only)."""
    return ("BD",) if error_type == "missing_values" else SCENARIOS


# The results DataFrame the harness produces: (column, Spark type) in
# column order. RESULT_SCHEMA is the same list as a Spark DDL string.
RESULT_FIELDS = [
    ("dataset", "string"),
    ("error_type", "string"),
    ("detect", "string"),
    ("repair", "string"),
    ("split_seed", "int"),
    ("train_version", "string"),
    ("model", "string"),
    ("search_seed", "int"),
    ("test_variant", "string"),
    ("val_metric", "double"),
    ("test_metric", "double"),
]
RESULT_COLUMNS = [name for name, _ in RESULT_FIELDS]
RESULT_SCHEMA = ", ".join(f"{name} {dtype}" for name, dtype in RESULT_FIELDS)

# Key attributes of the three relations (Table 1), minus Flag.
R1_KEY = ["dataset", "error_type", "detect", "repair", "model", "scenario"]
R2_KEY = ["dataset", "error_type", "detect", "repair", "scenario"]
R3_KEY = ["dataset", "error_type", "scenario"]
