"""Seeded synthetic results frame for the ``relations-full`` workload.

The frame has exactly the key structure a FULL grid run produces (every
dataset x error type x split x training version x model x search seed x
test variant), built from the protocol, the cleaning and dataset
registries and the schema, never from the program's own outputs. Its
metrics carry planted effects so that every R1/R2/R3 flag is known
before the relations are built:

* each (dataset, error type, method, model) gets a BD effect class and
  a CD effect class in {+1, -1, 0};
* a +1/-1 class shifts the "after" side by +/-DELTA plus small noise,
  so its t-test rejects by a wide margin and the flag is P/N;
* a 0 class makes both sides bit-identical on every split and seed, so
  the differences are exactly zero and the flag is S;
* validation metrics rank one (model, seed) per dataset and one
  cleaning method per dataset strictly first, so the R2 model choice
  and the R3 method choice are known too.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.cleaning.registry import ERROR_TYPES, methods_for
from repro.core.protocol import FULL, Protocol
from repro.core.schema import DIRTY, RESULT_COLUMNS, baseline_for, scenarios_for
from repro.datasets.registry import datasets_with_error

DELTA = 0.05
NOISE = 0.001
_FLAG = {1: "P", -1: "N", 0: "S"}


def version_label(method) -> str:
    """Training-version / test-variant label the runner gives a method."""
    if method.error_type == "missing_values":
        return method.repair
    return f"{method.detect}:{method.repair}"


def baseline_meta(error_type: str) -> tuple[str, str]:
    """(detect, repair) recorded on the baseline training version's rows."""
    if baseline_for(error_type) == DIRTY:
        return ("none", "none")
    return ("empty_entry", "delete")


def layout(error_type: str) -> tuple[list, list[str], list[str]]:
    """(methods, training versions, test variants) of one error type."""
    methods = list(methods_for(error_type))
    labels = [version_label(m) for m in methods]
    train = [baseline_for(error_type), *labels]
    tests = labels if error_type == "missing_values" else [DIRTY, *labels]
    return methods, train, tests


def expected_counts(protocol: Protocol, error_types=ERROR_TYPES, datasets=None) -> dict[str, int]:
    """Units, result rows, model fits and R1/R2/R3 specs that the protocol
    and the registries imply for a slice (``datasets`` None: all)."""
    out = dict.fromkeys(("units", "rows", "fits", "R1", "R2", "R3"), 0)
    n_m, n_k, n_s = len(protocol.models), len(protocol.search_seeds), protocol.n_splits
    for e in error_types:
        methods, train, tests = layout(e)
        n_sc = len(scenarios_for(e))
        for d in datasets_with_error(e):
            if datasets is not None and d not in datasets:
                continue
            out["units"] += n_s
            out["rows"] += n_s * len(train) * n_m * n_k * len(tests)
            out["fits"] += n_s * len(train) * n_m * n_k * (protocol.n_candidates + 1)
            out["R1"] += len(methods) * n_m * n_sc
            out["R2"] += len(methods) * n_sc
            out["R3"] += n_sc
    return out


def synthetic_results(seed: int, protocol: Protocol = FULL):
    """Return ``(frame, expected)``.

    ``frame`` has the harness's RESULT_COLUMNS; ``expected`` maps
    "R1"/"R2"/"R3" to a dict from the relation's key tuple to the flag
    the planted effects imply.
    """
    rng = np.random.default_rng(seed)
    models = list(protocol.models)
    seeds = list(protocol.search_seeds)
    splits = list(protocol.split_seeds)
    M, K, S = len(models), len(seeds), len(splits)
    frames = []
    expected = {"R1": {}, "R2": {}, "R3": {}}
    for e in ERROR_TYPES:
        methods, train, tests = layout(e)
        L, T, V = len(methods), len(train), len(tests)
        meta = [baseline_meta(e)] + [(m.detect, m.repair) for m in methods]
        has_cd = "CD" in scenarios_for(e)
        for d in datasets_with_error(e):
            beta = rng.integers(-1, 2, size=(L, M))
            gamma = rng.integers(-1, 2, size=(L, M)) if has_cd else np.zeros((L, M), int)
            model_rank = rng.permutation(M)
            method_rank = rng.permutation(L)
            u = rng.uniform(0.55, 0.75, size=(S, M, K))
            # metric[t, s, m, k, v]: train version t scored on test variant v.
            metric = np.broadcast_to(u[None, :, :, :, None], (T, S, M, K, V)).copy()
            for i, label in enumerate(train[1:]):
                noise = rng.uniform(-NOISE, NOISE, size=(S, M, K))
                noise *= (beta[i] != 0)[None, :, None]
                after = u + (beta[i] * DELTA)[None, :, None] + noise
                metric[i + 1, :, :, :, tests.index(label)] = after
                if has_cd:
                    zeta = rng.uniform(-NOISE, NOISE, size=(S, M, K))
                    dirty = u + ((beta[i] - gamma[i]) * DELTA)[None, :, None] + zeta
                    same = (gamma[i] == 0)[None, :, None]
                    metric[i + 1, :, :, :, tests.index(DIRTY)] = np.where(same, after, dirty)
            val = (
                0.5
                + 0.02 * model_rank[None, :, None]
                + 0.002 * np.arange(K)[None, None, :]
                + 0.0005 * np.r_[0, method_rank + 1][:, None, None]
            )
            val = np.broadcast_to(val[:, None, :, :, None], (T, S, M, K, V))
            t_i, s_i, m_i, k_i, v_i = (
                a.ravel() for a in np.indices((T, S, M, K, V))
            )
            frames.append(
                pd.DataFrame(
                    {
                        "dataset": d,
                        "error_type": e,
                        "detect": np.array([x[0] for x in meta])[t_i],
                        "repair": np.array([x[1] for x in meta])[t_i],
                        "split_seed": np.asarray(splits, dtype=np.int32)[s_i],
                        "train_version": np.array(train)[t_i],
                        "model": np.array(models)[m_i],
                        "search_seed": np.asarray(seeds, dtype=np.int32)[k_i],
                        "test_variant": np.array(tests)[v_i],
                        "val_metric": val.ravel(),
                        "test_metric": metric.ravel(),
                    }
                )
            )
            best_m = int(np.argmax(model_rank))
            best_l = int(np.argmax(method_rank))
            for i, m in enumerate(methods):
                for j, model in enumerate(models):
                    key = (d, e, m.detect, m.repair, model)
                    expected["R1"][(*key, "BD")] = _FLAG[int(beta[i, j])]
                    if has_cd:
                        expected["R1"][(*key, "CD")] = _FLAG[int(gamma[i, j])]
                expected["R2"][(d, e, m.detect, m.repair, "BD")] = _FLAG[int(beta[i, best_m])]
                if has_cd:
                    expected["R2"][(d, e, m.detect, m.repair, "CD")] = _FLAG[int(gamma[i, best_m])]
            for sc in scenarios_for(e):
                m = methods[best_l]
                expected["R3"][(d, e, sc)] = expected["R2"][(d, e, m.detect, m.repair, sc)]
    frame = pd.concat(frames, ignore_index=True)[RESULT_COLUMNS]
    return frame, expected
