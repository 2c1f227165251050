"""Show that the benchmark's output checks can fail.

    python3 perfbench/selftest.py

Builds a small planted-effect results frame, runs the program's
relations and Table 15 on Spark, confirms every check passes on the
true outputs, then corrupts one thing at a time -- a single raw
``test_metric``, one flag, one Table 15 count, one planted flag -- and
requires the matching check to fail. Exits non-zero otherwise.
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spark_env  # noqa: E402


def expect_failure(name: str, check, *args) -> bool:
    from perfbench.checks import CheckFailed

    try:
        check(*args)
    except CheckFailed as exc:
        print(f"ok   {name}: {exc}")
        return True
    print(f"FAIL {name}: the check passed on corrupted output")
    return False


def main() -> int:
    spark_env.prepare_environment()
    import numpy as np

    from perfbench import checks
    from perfbench.synth import expected_counts, synthetic_results
    from repro.cleaning.registry import ERROR_TYPES
    from repro.core.protocol import FULL
    from repro.core.queries import register_relations
    from repro.core.relations import build_relations
    from repro.core.report import table15_markdown
    from repro.stats import paired_ttest

    # The closed-form t CDF against the program's incomplete-beta one.
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in range(2, 26):
        b, a = rng.random(n), rng.random(n) + rng.normal(0, 0.3)
        d = a - b
        ref = checks.t_pvalues(n, d.mean(), d.std(ddof=1))
        got = paired_ttest(b, a)
        worst = max(worst, *(abs(x - y) for x, y in zip(ref, (got.p_two, got.p_upper, got.p_lower))))
    print(f"{'ok' if worst <= checks.TOL else 'FAIL'}   t p-values agree to {worst:.2g}")
    ok = worst <= checks.TOL

    protocol = dataclasses.replace(FULL, n_splits=5, models=("decision_tree", "naive_bayes"))
    results, planted = synthetic_results(1, protocol)
    spark = spark_env.start_spark()
    try:
        relations = build_relations(spark.createDataFrame(results), alpha=protocol.alpha)
        register_relations(spark, relations)
        md = table15_markdown(spark)
    finally:
        spark_env.stop_spark()

    want = expected_counts(protocol)
    checks.check_results(results, want["rows"])
    checks.check_counts(relations, want)
    checks.check_r1_pairs(results, relations["R1"])
    checks.check_by_and_flags(relations, protocol.alpha)
    checks.check_table15(md, relations, ERROR_TYPES)
    checks.check_planted(relations, planted)
    print("ok   every check passes on the program's outputs")

    after = results.index[(results.train_version == "IQR:delete")
                          & (results.test_variant == "IQR:delete")][0]
    bad = results.copy()
    bad.loc[after, "test_metric"] += 1e-3
    ok &= expect_failure("one perturbed test_metric", checks.check_r1_pairs, bad, relations["R1"])

    flipped = {k: v.copy() for k, v in relations.items()}
    flipped["R2"].loc[0, "flag"] = {"P": "N", "N": "S", "S": "P"}[flipped["R2"].loc[0, "flag"]]
    ok &= expect_failure("one flipped flag", checks.check_by_and_flags, flipped, protocol.alpha)
    ok &= expect_failure("one flipped planted flag", checks.check_planted, flipped, planted)

    first_count = md.index("(", md.index("| R1 |"))
    end = md.index(")", first_count)
    n = int(md[first_count + 1:end])
    bad_md = md[:first_count + 1] + str(n + 1) + md[end:]
    ok &= expect_failure("one Table 15 count off by one", checks.check_table15, bad_md,
                         relations, ERROR_TYPES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
