"""Dataset registry: the 13 base datasets of Table 3 plus the nine
injected-mislabel variants (EEG/KDD/USCensus × uniform/major/minor,
§3.1.5)."""
from __future__ import annotations

import dataclasses
import zlib
from functools import lru_cache

import pandas as pd

from repro.cleaning.mislabels import inject_mislabels
from repro.datasets import (
    airbnb,
    citation,
    company,
    credit,
    eeg,
    kdd,
    marketing,
    movie,
    restaurant,
    sensor,
    titanic,
    university,
    uscensus,
)
from repro.datasets.base import DatasetSpec

_BASE_MODULES = (
    airbnb,
    citation,
    company,
    credit,
    eeg,
    kdd,
    marketing,
    movie,
    restaurant,
    sensor,
    titanic,
    university,
    uscensus,
)

MISLABEL_VARIANTS = ("uniform", "major", "minor")
_MISLABEL_BASES = ("EEG", "KDD", "USCensus")
_MISLABEL_SEED = 9001


def _variant_spec(base: DatasetSpec, variant: str) -> DatasetSpec:
    name = f"{base.name}_{variant}"

    def generate(base=base, variant=variant) -> pd.DataFrame:
        return inject_mislabels(
            base.generate(),
            base.label,
            variant=variant,
            seed=_MISLABEL_SEED + zlib.crc32(name.encode()) % 1000,
        )

    return dataclasses.replace(
        base, name=name, error_types=("mislabels",), generate=generate
    )


def _build() -> dict[str, DatasetSpec]:
    out = {m.SPEC.name: m.SPEC for m in _BASE_MODULES}
    for base_name in _MISLABEL_BASES:
        for variant in MISLABEL_VARIANTS:
            spec = _variant_spec(out[base_name], variant)
            out[spec.name] = spec
    return out


DATASETS: dict[str, DatasetSpec] = _build()


def spec_for(name: str) -> DatasetSpec:
    return DATASETS[name]


def datasets_with_error(error_type: str) -> tuple[str, ...]:
    """Dataset names taking part in one error type's experiments.

    Mislabel experiments run on the injected variants only; the other
    error types run on the base datasets carrying that error in
    Table 3.
    """
    if error_type == "mislabels":
        return tuple(
            f"{b}_{v}" for b in _MISLABEL_BASES for v in MISLABEL_VARIANTS
        )
    return tuple(
        s.name
        for s in DATASETS.values()
        if error_type in s.error_types and "_" not in s.name
    )


@lru_cache(maxsize=32)
def load_dataset(name: str) -> pd.DataFrame:
    """Materialize one dataset (deterministic; cached per process)."""
    return DATASETS[name].generate()
