"""ML substrate: preprocessing, the seven CleanML classifiers, search.

One backend (paper §3.3): :mod:`repro.ml.models` holds vectorized NumPy
implementations of all seven models, which the grid fits and scores
inside each unit's Spark task.
"""
from repro.ml.features import Featurizer, downsample_majority
from repro.ml.models import MODEL_NAMES, make_model
from repro.ml.metrics import accuracy, f1_binary

__all__ = [
    "Featurizer",
    "downsample_majority",
    "MODEL_NAMES",
    "make_model",
    "accuracy",
    "f1_binary",
]
