"""Experiment protocol presets.

``PAPER`` is the paper's exact configuration (20 splits, 5 random-
search seeds). ``FULL`` is the scaled configuration used to populate
EXPERIMENTS.md on one machine (same machinery, fewer repetitions);
``SMOKE`` keeps tests fast. The preset used is recorded alongside every
reported number.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.ml.models import MODEL_NAMES


@dataclass(frozen=True)
class Protocol:
    """The CleanML §4 procedure's knobs that differ between presets.

    The fixed fractions are constants beside their one use: the 70/30
    train/test split is ``core/runner.py::TEST_FRAC`` and the random
    search's holdout is ``ml/search.py::VAL_FRAC``.
    """

    n_splits: int = 20
    split_seed0: int = 100
    search_seeds: tuple[int, ...] = (8006, 6130, 5824, 3659, 3239)
    n_candidates: int = 3
    alpha: float = 0.05
    models: tuple[str, ...] = tuple(MODEL_NAMES)

    @property
    def split_seeds(self) -> tuple[int, ...]:
        return tuple(self.split_seed0 + i for i in range(self.n_splits))


PAPER = Protocol()
# FULL keeps the paper's 20 splits (the t-test power driver) and scales
# down only the random-search dimension (2 seeds x 2 candidates).
FULL = Protocol(n_splits=20, search_seeds=(8006, 6130), n_candidates=2)
SMOKE = Protocol(
    n_splits=4,
    search_seeds=(8006,),
    n_candidates=1,
    models=("logistic_regression", "decision_tree", "naive_bayes"),
)
