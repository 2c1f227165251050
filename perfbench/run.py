"""CleanML pipeline benchmark: one command, three workloads.

    python3 perfbench/run.py --workload grid-trees --seed 1 --seconds 10 --trace 0

Every workload runs the program's public path -- ``run_grid`` ->
``build_relations`` -> ``register_relations`` + ``table15_markdown`` --
on Spark in local mode, checks the outputs against references computed
apart from the program, and prints its metrics as the last line of
standard output (one JSON object). ``--trace 1`` runs the same work
units in-process and serially under span wrappers and prints per-layer
metrics instead. ``--reference`` runs a grid workload at the committed
20-split protocol and compares R1 with ``results/R1.csv``. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spark_env  # noqa: E402  (stdlib only; sets no state)

TREE_MODELS = ("decision_tree", "random_forest", "adaboost", "xgboost")
CLEANING_MODELS = ("logistic_regression", "naive_bayes")
SETUPS = 3  # set-ups per run; setup_s is their median
SEED_MODULUS = 10**8  # --seed is reduced modulo this, so any integer is accepted


@dataclasses.dataclass(frozen=True)
class Workload:
    error_types: tuple[str, ...] | None  # None: every error type
    datasets: tuple[str, ...] | None  # None: every dataset of each error type
    models: tuple[str, ...] | None  # None: every model
    n_splits: int
    search_seeds: int  # how many random-search seeds, drawn from --seed
    synthetic: bool = False

    def protocol(self, seed: int, reference: bool = False):
        """FULL scaled to this workload, with search seeds drawn from
        ``seed``; with ``reference``, the committed grid's FULL protocol."""
        from repro.core.protocol import FULL

        models = self.models or FULL.models
        if reference:
            return dataclasses.replace(FULL, models=models)
        seeds = tuple(10 * seed + i for i in range(self.search_seeds))
        return dataclasses.replace(FULL, n_splits=self.n_splits, search_seeds=seeds, models=models)

    def all_error_types(self) -> tuple[str, ...]:
        from repro.cleaning.registry import ERROR_TYPES

        return self.error_types or ERROR_TYPES


WORKLOADS = {
    # ml.tree and ml.models do ~85 % of each unit's CPU; cleaning ~4 %.
    "grid-trees": Workload(("outliers",), ("Credit",), TREE_MODELS, n_splits=4, search_seeds=2),
    # No trees: cleaning, featurizing and per-unit harness overhead.
    "grid-cleaning": Workload(None, None, CLEANING_MODELS, n_splits=2, search_seeds=2),
    # No grid: relations, t-tests, BY and queries over a FULL-shaped frame.
    "relations-full": Workload(None, None, None, n_splits=20, search_seeds=2, synthetic=True),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "specs_per_s": "1/s",
    "driver_rss_mb": "MB",
    "worker_rss_mb": "MB",
}

ALL_MODELS = (
    "logistic_regression", "decision_tree", "random_forest",
    "adaboost", "xgboost", "naive_bayes",
)
PER_LAYER = {
    "datasets.load_s": "s",
    "runner.unit_s": "s",
    "runner.self_s": "s",
    "runner.units": "count",
    "cleaning.build_versions_s": "s",
    "cleaning.versions": "count",
    "features.fit_s": "s",
    "features.transform_s": "s",
    "features.transforms": "count",
    "search.self_s": "s",
    "search.calls": "count",
    **{f"models.{m}.{op}_s": "s" for m in ALL_MODELS for op in ("fit", "predict")},
    "models.fits": "count",
    "models.predicts": "count",
    "tree.classifier_fit_s": "s",
    "tree.newton_fit_s": "s",
    "tree.apply_s": "s",
    "tree.apply_calls": "count",
    "tree.binner_fit_s": "s",
    "tree.binner_fits": "count",
    "tree.binner_transform_s": "s",
    "tree.nodes": "count",
    "harness.grid_s": "s",
    "harness.overhead_s": "s",
    "harness.fits_per_s": "1/s",
    "relations.pairs_r1_s": "s",
    "relations.pairs_r2_s": "s",
    "relations.pairs_r3_s": "s",
    "relations.build_s": "s",
    "relations.specs": "count",
    "stats.paired_ttest_s": "s",
    "stats.by_adjust_s": "s",
    "queries.table15_s": "s",
    "queries.runs": "count",
    "trace.overhead_s": "s",
}


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def calibrate() -> float:
    """Median seconds of a fixed NumPy kernel: a host-speed diagnostic,
    printed before and after the run, never used in a metric."""
    import numpy as np

    a = np.random.default_rng(0).random((160, 160))
    times = []
    for _ in range(5):
        t = time.perf_counter()
        b = a
        for _ in range(40):
            b = np.tanh(b @ a / 160.0)
        np.sort(b, axis=None)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spark_env.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(spark, name: str, seed: int, protocol) -> None:
    import numpy, pandas, pyarrow, pyspark

    log(f"workload={name} seed={seed} git={git_sha()} nproc={os.cpu_count()} "
        f"slots={spark_env.slots()} master={spark.sparkContext.master}")
    log(f"python={platform.python_version()} numpy={numpy.__version__} "
        f"pandas={pandas.__version__} pyarrow={pyarrow.__version__} "
        f"spark={pyspark.__version__} java={spark_env.java_version(spark)}")
    log(f"protocol={protocol!r}")


# ---------------------------------------------------------------- counts


def expected(wl: Workload, protocol) -> dict[str, int]:
    from perfbench.synth import expected_counts

    return expected_counts(protocol, wl.all_error_types(), wl.datasets)


def slice_datasets(wl: Workload) -> tuple[str, ...]:
    from repro.datasets.registry import datasets_with_error

    return tuple(sorted({
        d for e in wl.all_error_types() for d in datasets_with_error(e)
        if wl.datasets is None or d in wl.datasets
    }))


def table15_queries(error_types) -> int:
    from repro.core.queries import QUERIES, applicable
    from repro.core.report import RELATIONS

    return sum(applicable(q, r, e) for e in error_types for q in QUERIES for r in RELATIONS)


# ----------------------------------------------------------------- setup


def setup_once(wl: Workload, seed: int, protocol):
    """Session (launching the JVM on the first call), one warmed Python
    worker per slot with its datasets, and (relations-full) the cached frame."""
    t0 = time.perf_counter()
    spark = spark_env.start_spark()
    pids = spark_env.warm_workers(spark, () if wl.synthetic else slice_datasets(wl))
    frame = planted = None
    if wl.synthetic:
        from perfbench.synth import synthetic_results

        pdf, planted = synthetic_results(seed, protocol)
        frame = spark.createDataFrame(pdf).cache()
        frame.count()
    return spark, frame, planted, time.perf_counter() - t0, pids


def setup(wl: Workload, seed: int, protocol):
    """SETUPS set-ups; each later one stops the context, so its Python
    workers are spawned, import repro and materialise data anew."""
    times = []
    spark = None
    for _ in range(SETUPS):
        if spark is not None:
            spark.stop()
        spark, frame, planted, t, pids = setup_once(wl, seed, protocol)
        times.append(t)
    log(f"set-ups: {', '.join(f'{t:.3f}' for t in times)} s; warmed workers {sorted(pids)}")
    return spark, frame, planted, statistics.median(times)


# ---------------------------------------------------------------- passes


def one_pass(spark, wl: Workload, protocol, frame):
    """The timed part: grid (unless synthetic), relations, Table 15."""
    from repro.core.harness import run_grid
    from repro.core.queries import register_relations
    from repro.core.relations import build_relations
    from repro.core.report import table15_markdown

    t0 = time.perf_counter()
    results = frame
    if not wl.synthetic:
        results = run_grid(spark, protocol, wl.all_error_types(), wl.datasets)
    t1 = time.perf_counter()
    relations = build_relations(results, alpha=protocol.alpha)
    register_relations(spark, relations)
    md = table15_markdown(spark, wl.all_error_types())
    t2 = time.perf_counter()
    return results, relations, md, {"wall": t2 - t0, "grid": t1 - t0, "analysis": t2 - t1}


def run_checks(wl: Workload, protocol, results_pdf, relations, md, planted, reference) -> None:
    from perfbench import checks

    want = expected(wl, protocol)
    checks.check_results(results_pdf, want["rows"])
    checks.check_counts(relations, want)
    checks.check_r1_pairs(results_pdf, relations["R1"])
    checks.check_by_and_flags(relations, protocol.alpha)
    checks.check_table15(md, relations, wl.all_error_types())
    if planted is not None:
        checks.check_planted(relations, planted)
    if reference:
        checks.check_reference(relations["R1"], spark_env.ROOT / "results" / "R1.csv")
        log(f"reference: all {len(relations['R1'])} R1 specs match results/R1.csv")


def measure(spark, wl, protocol, frame, planted, seconds, reference):
    """Whole passes until ``seconds`` have elapsed (at least one); the
    last pass's outputs are checked after timing ends."""
    per_pass_ops = (0 if wl.synthetic else expected(wl, protocol)["units"]) + 1 + table15_queries(
        wl.all_error_types())
    passes, attempted, failed, last = [], 0, 0, None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if last is not None and not wl.synthetic:
            last[0].unpersist()  # run_grid returns its output cached
        attempted += per_pass_ops
        try:
            last = one_pass(spark, wl, protocol, frame)
        except Exception:  # noqa: BLE001  (a failed pass is counted, not fatal)
            traceback.print_exc()
            failed += per_pass_ops
            break
        t = last[3]
        t["specs"] = sum(len(r) for r in last[1].values())
        passes.append(t)
        log(f"pass {len(passes)}: wall {t['wall']:.3f} s, grid {t['grid']:.3f} s, "
            f"analysis {t['analysis']:.3f} s, {t['specs']} specs")
    rss = spark_env.driver_peak_rss_mb()
    if passes:
        results, relations, md, _ = last
        results_pdf = results.toPandas()
        run_checks(wl, protocol, results_pdf, relations, md, planted, reference)
        log("checks passed")
    return passes, attempted, failed, rss


# ----------------------------------------------------------------- trace


def traced(spark, wl, protocol, frame, planted):
    """Per-layer metrics from one serial in-process run of the same units."""
    from perfbench import trace
    from repro.core.harness import build_grid, run_grid

    tr = trace.Tracer()
    m = {k: 0.0 if u != "count" else 0 for k, u in PER_LAYER.items()}
    results = frame
    if not wl.synthetic:
        units = list(build_grid(protocol, wl.all_error_types(), wl.datasets).itertuples())
        t = time.perf_counter()
        results = run_grid(spark, protocol, wl.all_error_types(), wl.datasets)
        m["harness.grid_s"] = time.perf_counter() - t
        trace.install_unit_wrappers(tr)
        try:
            traced_s = trace.run_units_serial(units, protocol, tr)
        finally:
            tr.restore()
        # Tracing overhead: the first unit of each (error type, dataset),
        # run again without wrappers, against the same units' traced spans.
        first = {}
        for i, u in enumerate(units):
            first.setdefault((u.error_type, u.dataset), i)
        sample = [units[i] for i in first.values()]
        plain_s = trace.run_units_serial(sample, protocol, None)
        unit_spans = [s for s in tr.spans if s["name"] == "runner.unit"]
        sample_traced = sum(unit_spans[i]["end"] - unit_spans[i]["start"] for i in first.values())
        m["trace.overhead_s"] = sample_traced - plain_s
        log(f"serial units: all {len(units)} traced {traced_s:.3f} s; {len(sample)} of them "
            f"traced {sample_traced:.3f} s, untraced {plain_s:.3f} s")
    relations, md, query_runs = trace.trace_analysis(
        spark, results, tr, wl.all_error_types(), protocol.alpha)
    results_pdf = results.toPandas()
    run_checks(wl, protocol, results_pdf, relations, md, planted, False)

    st = tr.self_times()
    c = tr.calls()
    unit_s = tr.total_time("runner.unit")
    m.update({
        "datasets.load_s": st["datasets.load"],
        "runner.unit_s": unit_s,
        "runner.self_s": st["runner.unit"],
        "runner.units": c["runner.unit"],
        "cleaning.build_versions_s": st["cleaning.build_versions"],
        "cleaning.versions": tr.versions,
        "features.fit_s": st["features.fit"],
        "features.transform_s": st["features.transform"],
        "features.transforms": c["features.transform"],
        "search.self_s": st["search"],
        "search.calls": c["search"],
        "models.fits": sum(n for k, n in c.items() if k.startswith("models.") and k.endswith(".fit")),
        "models.predicts": sum(n for k, n in c.items()
                               if k.startswith("models.") and k.endswith(".predict")),
        "tree.classifier_fit_s": st["tree.classifier_fit"],
        "tree.newton_fit_s": st["tree.newton_fit"],
        "tree.apply_s": st["tree.apply"],
        "tree.apply_calls": c["tree.apply"],
        "tree.binner_fit_s": st["tree.binner_fit"],
        "tree.binner_fits": c["tree.binner_fit"],
        "tree.binner_transform_s": st["tree.binner_transform"],
        "tree.nodes": sum(trace.count_nodes(t) for t in tr.trees),
        "relations.pairs_r1_s": st["relations.pairs_r1"],
        "relations.pairs_r2_s": st["relations.pairs_r2"],
        "relations.pairs_r3_s": st["relations.pairs_r3"],
        "relations.build_s": st["relations.build"],
        "relations.specs": sum(len(v) for v in relations.values()),
        "stats.paired_ttest_s": st["stats.paired_ttest"],
        "stats.by_adjust_s": st["stats.by_adjust"],
        "queries.table15_s": st["queries.table15"],
        "queries.runs": query_runs,
    })
    for model in ALL_MODELS:
        m[f"models.{model}.fit_s"] = st[f"models.{model}.fit"]
        m[f"models.{model}.predict_s"] = st[f"models.{model}.predict"]
    if not wl.synthetic:
        m["harness.overhead_s"] = m["harness.grid_s"] - unit_s / spark_env.slots()
        m["harness.fits_per_s"] = expected(wl, protocol)["fits"] / m["harness.grid_s"]
        unit_self = sum(v for k, v in st.items() if k.split(".")[0] not in
                        ("relations", "stats", "queries"))
        log(f"self times inside units sum to {unit_self:.6f} s; runner.unit_s {unit_s:.6f} s")
    if tr.absent:
        log(f"absent (not traced): {', '.join(tr.absent)}")
    spans_path = spark_env.OUT / f"spans-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.json"
    tr.dump(spans_path)
    log(f"{len(tr.spans)} spans written to {spans_path.relative_to(spark_env.ROOT)}")
    for k, v in m.items():
        log(f"{k:34s} {v:>14.6f} {PER_LAYER[k]}" if isinstance(v, float)
            else f"{k:34s} {v:>14d} {PER_LAYER[k]}")
    ops = (len(units) if not wl.synthetic else 0) + 1 + table15_queries(wl.all_error_types())
    return m, ops


# ------------------------------------------------------------------ main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="grid workloads: random-search seeds; relations-full: the frame "
                         "(any integer, taken modulo 1e8)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole passes until this many seconds have elapsed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true",
                    help="grid workloads: run the committed FULL protocol and "
                         "compare R1 with results/R1.csv")
    args = ap.parse_args(argv)
    # Search seeds 10·seed + i are stored as int32 in the results frame.
    args.seed %= SEED_MODULUS
    if args.reference and (WORKLOADS[args.workload].synthetic or args.trace):
        ap.error("--reference needs a grid workload and --trace 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (spark_env.ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {spark_env.ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    spark_env.prepare_environment()
    wl = WORKLOADS[args.workload]
    protocol = wl.protocol(args.seed, args.reference)
    log(f"calibration before: {calibrate() * 1e3:.3f} ms")
    try:
        spark, frame, planted, setup_s = setup(wl, args.seed, protocol)
        provenance(spark, args.workload, args.seed, protocol)
        if args.trace:
            metrics, ops = traced(spark, wl, protocol, frame, planted)
            attempted, failed = ops, 0
            units = PER_LAYER
        else:
            passes, attempted, failed, rss = measure(
                spark, wl, protocol, frame, planted, args.seconds, args.reference)
            if not passes:
                return 1
            med = lambda k: statistics.median(p[k] for p in passes)  # noqa: E731
            metrics = {
                "wall_s": med("wall"),
                "setup_s": setup_s,
                "specs_per_s": statistics.median(p["specs"] / p["analysis"] for p in passes),
                "driver_rss_mb": rss,
                "worker_rss_mb": spark_env.worker_peak_rss_mb(),
            }
            if not wl.synthetic:
                fits = expected(wl, protocol)["fits"]
                log(f"fits_per_s {fits / med('grid'):.3f} ({fits} model fits in the grid stage)")
            log(f"python workers at end: {sorted(spark_env.python_workers())}")
            units = END_TO_END
        log(f"operations: attempted {attempted}, failed {failed}")
    finally:
        spark_env.stop_spark()
        log(f"calibration after: {calibrate() * 1e3:.3f} ms")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
