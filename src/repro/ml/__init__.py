"""ML substrate: preprocessing, the seven CleanML classifiers, search.

One backend (paper §3.3): :mod:`repro.ml.models` holds vectorized NumPy
implementations of all seven models, which the grid fits and scores
inside each unit's Spark task.
"""
