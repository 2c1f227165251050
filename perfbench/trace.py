"""In-memory span tracer and the wrappers it places around layer calls.

A span records (id, name, parent, unit, start, end). Wrappers are
installed on the names where the program looks them up (for example
``repro.core.runner.random_search``, ``repro.ml.models.tree_apply``),
so no program file changes. A name that no longer exists is reported
as absent rather than failing the run. Call counts are span counts.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.versions = 0  # training versions built by the cleaning layer
        self.trees: list = []  # fitted trees, node-counted after the run
        self.unit: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "unit": self.unit,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def traced(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)`` until :meth:`restore`;
        record the name as absent if the program no longer has it."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        self.patch(owner, attr, lambda fn: self.traced(fn, name, on_result))

    def wrap_class(self, module, attr: str, methods: dict[str, str]) -> None:
        """Replace a class with a subclass whose methods are traced;
        ``methods`` maps method name to span name."""

        def subclass(cls):
            body = {}
            for meth, name in methods.items():
                if hasattr(cls, meth):
                    body[meth] = self.traced(getattr(cls, meth), name)
                else:
                    self.absent.append(f"{module.__name__}.{attr}.{meth}")
            return type(cls.__name__, (cls,), body)

        self.patch(module, attr, subclass)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def calls(self) -> Counter:
        return Counter(s["name"] for s in self.spans)

    def total_time(self, name: str) -> float:
        return sum((s["end"] - s["start"] for s in self.spans if s["name"] == name), 0.0)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def count_nodes(tree) -> int:
    """Nodes of one fitted tree: nested dicts, or flat arrays with ``feat``."""
    if isinstance(tree, dict):
        if "leaf" in tree:
            return 1
        return 1 + count_nodes(tree["left"]) + count_nodes(tree["right"])
    return len(getattr(tree, "feat", ()))


def install_unit_wrappers(tr: Tracer) -> None:
    """Spans for every layer a work unit goes through."""
    import repro.core.runner as runner
    import repro.ml.models as models
    import repro.ml.search as search

    def add_versions(out):
        tr.versions += len(out[0])

    def traced_make_model(make_model):
        def make(name, *args, **kwargs):
            model = make_model(name, *args, **kwargs)
            # Instance attributes: they go away with the model.
            model.fit = tr.traced(model.fit, f"models.{name}.fit")
            model.predict = tr.traced(model.predict, f"models.{name}.predict")
            return model

        return make

    tr.wrap(runner, "load_dataset", "datasets.load")
    tr.wrap(runner, "build_versions", "cleaning.build_versions", add_versions)
    tr.wrap_class(runner, "Featurizer", {"fit": "features.fit", "transform": "features.transform"})
    tr.wrap(runner, "random_search", "search")
    tr.patch(search, "make_model", traced_make_model)
    tr.wrap(models, "fit_tree_classifier", "tree.classifier_fit", tr.trees.append)
    tr.wrap(models, "fit_tree_newton", "tree.newton_fit", tr.trees.append)
    tr.wrap(models, "tree_apply", "tree.apply")
    tr.wrap_class(models, "Binner", {"fit": "tree.binner_fit", "transform": "tree.binner_transform"})


def run_units_serial(units, protocol, tr: Tracer | None) -> float:
    """Run every unit in-process, one after another; returns seconds."""
    import repro.core.runner as runner
    from repro.datasets.registry import load_dataset

    load_dataset.cache_clear()
    t0 = time.perf_counter()
    for u in units:
        if tr is None:
            runner.run_unit(u.dataset, u.error_type, int(u.split_seed), protocol)
            continue
        tr.unit = f"{u.dataset}/{u.error_type}/{u.split_seed}"
        with tr.span("runner.unit"):
            runner.run_unit(u.dataset, u.error_type, int(u.split_seed), protocol)
    if tr is not None:
        tr.unit = None
    return time.perf_counter() - t0


def trace_analysis(spark, results, tr: Tracer, error_types, alpha: float):
    """Relations, statistics and queries with a span at each point where
    Spark materialises a result; returns (relations, markdown, query runs)."""
    import numpy as np

    import repro.core.relations as rel
    import repro.core.report as report
    from repro.core.queries import register_relations
    from repro.core.schema import R1_KEY, R2_KEY, R3_KEY
    from repro.stats import by_adjust, paired_ttest

    with tr.span("relations.pairs_r1"):
        pairs_r1 = rel.build_pairs_r1(results).cache()
        pairs_r1.count()
    with tr.span("relations.pairs_r2"):
        pairs_r2 = rel.build_pairs_r2(results).cache()
        pairs_r2.count()
    with tr.span("relations.pairs_r3"):
        pairs_r3 = rel.build_pairs_r3(pairs_r2).cache()
        pairs_r3.count()
    with tr.span("relations.build"):
        relations = rel.build_relations(results, alpha=alpha)

    # The program runs the t-tests inside Spark workers; here the same
    # functions run in the driver over the collected pairs.
    for pairs, key in ((pairs_r1, R1_KEY), (pairs_r2, R2_KEY), (pairs_r3, R3_KEY)):
        groups = [g for _, g in pairs.toPandas().groupby(key, sort=False)]
        with tr.span("stats.paired_ttest"):
            tests = [paired_ttest(g.before_metric.to_numpy(), g.after_metric.to_numpy())
                     for g in groups]
        pvals = [np.array([getattr(t, c) for t in tests]) for c in ("p_two", "p_upper", "p_lower")]
        with tr.span("stats.by_adjust"):
            for p in pvals:
                by_adjust(p)
    for pairs in (pairs_r3, pairs_r2, pairs_r1):
        pairs.unpersist()

    # run_query only builds a plan (Table 15 executes it), so it is
    # counted, not spanned: its time stays in queries.table15.
    runs = 0

    def counted(run_query):
        def run(*args, **kwargs):
            nonlocal runs
            runs += 1
            return run_query(*args, **kwargs)

        return run

    tr.patch(report, "run_query", counted)
    try:
        with tr.span("queries.table15"):
            register_relations(spark, relations)
            md = report.table15_markdown(spark, error_types)
    finally:
        tr.restore()
    return relations, md, runs
