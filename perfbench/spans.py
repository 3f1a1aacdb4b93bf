"""Span recorder for the traced benchmark pass, and the per-layer metrics.

``install()`` wraps ringlab's public entry points from outside the package:
each call records a span (name, start, end, parent) in memory, and
``Recorder.dump`` writes them as JSON at exit.  Module functions are
re-bound in every ``ringlab.*`` module that holds them, including names
bound by ``from ... import`` (``suites`` imports ``make_matrix``,
``uu_exponent``, ...), so no call site keeps the unwrapped function.
``StructureCache`` entries and ``FiniteRing.try_tables`` are wrapped on the
class and record a span only on a miss, when the work is actually done.

``layer_metrics`` turns a span dump into the per-layer metrics named in
``BENCHMARK.json``; ``PREDICTED`` says which end-to-end metric each one
should move on which workload, and ``coverage_problems`` checks that every
metric recorded a span on a workload where it is predicted to move.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

SUITE_IDS = (
    "THM1-EQUIV", "MATRIX-LCM", "FIELD-UU", "PROP-UU", "ODD-2NIL", "DIV-UU",
    "ODD-SPLIT", "GCD-UU", "SNC-NC", "CLOSURE-PROD", "CLOSURE-CORNER", "NILQUOT",
    "NEG-MATRIX", "MORITA", "THM2-CONSTRUCTIVE", "GROUPRING-NEC", "GROUPRING-SUF",
    "UNIPO",
)
LAYERS = ("dsl", "constructions", "core", "invariants", "predicates", "suites")

# StructureCache entry -> (span name, the _d keys that mean "already computed")
_CACHE_ENTRIES = {
    "nil_mask": ("invariants.nil", ("nil",)),
    "unit_mask": ("invariants.units", ("unit_mask",)),
    "units": ("invariants.units", ("units",)),
    "unit_inverses": ("invariants.units", ("unit_inv",)),
    "idempotents": ("invariants.idempotents", ("idem",)),
    "radical_mask": ("invariants.radical", ("radical",)),
    "center_mask": ("invariants.center", ("center",)),
    "unit_unipotence_exponents": ("invariants.uu_exponent", ("dexp",)),
    "uu_exponent": ("invariants.uu_exponent", ("uu",)),
}
_TRACED_PREDICATES = ("is_n_uu", "is_strongly_n_nil_clean", "is_nil_clean", "thm1_condition")


class Recorder:
    """Spans kept in memory as [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.clock = time.perf_counter  # workloads.py sets HostClock.now, which leaves out the probes
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.originals: list = []  # functions re-bound by install()
        self._stack: list[int] = []

    def open(self, name: str, attrs=None) -> int:
        i = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else None, attrs])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        i = self.open(name, attrs)
        try:
            yield
        finally:
            self.close(i)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def dump(self, path: str) -> None:
        dump = {"spans": self.spans, "counts": self.counts, "unwrapped": self.unwrapped()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)

    def unwrapped(self) -> list[str]:
        """ringlab bindings, in modules imported since, still holding an unwrapped original."""
        originals = {id(fn) for fn in self.originals}
        return [
            f"{modname}.{attr}"
            for modname, mod in _ringlab_modules()
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]


def _spanned(rec: Recorder, name: str, fn, attrs_of=None):
    def wrapper(*args, **kwargs):
        i = rec.open(name, attrs_of(*args) if attrs_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)

    return wrapper


def _ringlab_modules():
    return [
        (name, mod)
        for name, mod in list(sys.modules.items())
        if name == "ringlab" or name.startswith("ringlab.")
    ]


def _rebind(rec: Recorder, original, replacement) -> None:
    """Point every ringlab module's binding of ``original`` at ``replacement``."""
    rec.originals.append(original)
    for _name, mod in _ringlab_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _n_uu_path(R, *_args) -> dict:
    # the path is_n_uu takes: tables when they fit the memo budget, else the scan
    capable = getattr(R, "table_capable", None)
    return {"path": "oracle" if capable is None else ("table" if capable else "scan")}


def install() -> Recorder:
    """Wrap ringlab's entry points; call after ``import ringlab``."""
    from ringlab import constructions, core, dsl, invariants, predicates, suites

    rec = Recorder()

    _rebind(rec, dsl.elaborate, _spanned(rec, "dsl.elaborate", dsl.elaborate))
    for name in dir(constructions):
        fn = getattr(constructions, name)
        if callable(fn) and (name.startswith("make_") or name in ("ideal_closure", "subring_closure")):
            _rebind(rec, fn, _spanned(rec, "constructions.build", fn))

    _rebind(rec, core.verify_ring_axioms, _spanned(
        rec, "core.verify_ring_axioms", core.verify_ring_axioms,
        lambda R, *a: {"ring": R.label, "size": R.size},
    ))
    try_tables = core.FiniteRing.try_tables

    def traced_try_tables(self):
        if self._tables is not None or not self.table_capable:
            return try_tables(self)
        n = self.size
        # two int32 N x N tables plus the int32 negation vector
        attrs = {"ring": self.label, "size": n, "bytes_computed": 8 * n * n + 4 * n}
        i = rec.open("core.try_tables", attrs)
        try:
            return try_tables(self)
        finally:
            rec.close(i)

    core.FiniteRing.try_tables = traced_try_tables

    cls = invariants.StructureCache
    for prop, (span_name, keys) in _CACHE_ENTRIES.items():
        fget = getattr(cls, prop).fget
        setattr(cls, prop, property(_cache_entry(rec, span_name, keys, fget)))
    cls.radical = _cache_entry(rec, "invariants.radical", ("radical_ideal",), cls.radical)

    for name in _TRACED_PREDICATES:
        fn = getattr(predicates, name)
        attrs = _n_uu_path if name == "is_n_uu" else None
        _rebind(rec, fn, _spanned(rec, f"predicates.{name}", fn, attrs))

    for suite_id, fn in list(suites.SUITE_REGISTRY.items()):
        suites.SUITE_REGISTRY[suite_id] = _spanned(rec, f"suites.{suite_id}", fn)
    run_suite = suites.run_suite

    def counted_run_suite(*args, **kwargs):
        result = run_suite(*args, **kwargs)
        rec.count("suites.records", len(result.records))
        rec.count("suites.skipped", sum(1 for r in result.records if r.skipped))
        return result

    _rebind(rec, run_suite, counted_run_suite)
    return rec


def _cache_entry(rec: Recorder, name: str, keys, fn):
    def wrapper(self, *args):
        if all(k in self._d for k in keys):
            return fn(self, *args)
        i = rec.open(name, {"ring": self.ring.label})
        try:
            return fn(self, *args)
        finally:
            rec.close(i)

    return wrapper


# ---------------------------------------------------------------------------
# metrics from a span dump
# ---------------------------------------------------------------------------

# per-layer metric -> (end-to-end metrics it should move, workloads where it
# must record a span).  The prose in perfbench/README.md gives the reasons.
PREDICTED: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "core.try_tables_s": (("run_s", "peak_rss_mb"), ("classify_boundary", "verify_corpus")),
    "core.tables_built": (("run_s", "peak_rss_mb"), ("classify_boundary", "verify_corpus")),
    "core.table_bytes": (("run_s", "peak_rss_mb"), ("classify_boundary", "verify_corpus")),
    "invariants.nil_s": (("run_s",), ("classify_boundary",)),
    "invariants.units_s": (("run_s",), ("classify_boundary",)),
    "invariants.idempotents_s": (("run_s",), ("classify_boundary",)),
    "invariants.radical_s": (("run_s",), ("classify_boundary",)),
    # classify never asks for the center; ODD-2NIL is its only caller
    "invariants.center_s": (("run_s",), ("verify_corpus",)),
    "invariants.uu_exponent_s": (("run_s",), ("classify_boundary",)),
    "predicates.is_n_uu.calls": (("run_s",), ("verify_corpus",)),
    "predicates.is_n_uu.table_s": (("run_s",), ("verify_corpus",)),
    "predicates.is_n_uu.scan_s": (("run_s",), ("verify_corpus",)),
    "predicates.is_strongly_n_nil_clean_s": (("run_s",), ("verify_corpus",)),
    "predicates.is_nil_clean_s": (("run_s",), ("verify_corpus",)),
    "predicates.thm1_condition_s": (("run_s",), ("verify_corpus",)),
    **{f"suites.{sid}_s": (("run_s",), ("verify_corpus",)) for sid in SUITE_IDS},
    "suites.records": (("run_s",), ("verify_corpus",)),
    "suites.skipped": (("run_s",), ("verify_corpus",)),
    "core.verify_ring_axioms_s": (("run_s",), ("axioms_corpus",)),
    "core.verify_ring_axioms_max_s": (("run_s",), ("axioms_corpus",)),
    "dsl.elaborate_s": (("setup_s",), ("classify_boundary",)),
    "constructions.build_s": (("setup_s",), ("verify_corpus", "classify_boundary", "axioms_corpus")),
    **{f"{layer}.self_s": (("run_s",), ()) for layer in LAYERS},
}
# metrics that must record no span on the workloads named
ABSENT = {"core.verify_ring_axioms_s": ("verify_corpus", "classify_boundary")}

# metric -> span name, for the metrics that total the time of one span name
_TOTALS = {
    "core.try_tables_s": "core.try_tables",
    "invariants.nil_s": "invariants.nil",
    "invariants.units_s": "invariants.units",
    "invariants.idempotents_s": "invariants.idempotents",
    "invariants.radical_s": "invariants.radical",
    "invariants.center_s": "invariants.center",
    "invariants.uu_exponent_s": "invariants.uu_exponent",
    "predicates.is_strongly_n_nil_clean_s": "predicates.is_strongly_n_nil_clean",
    "predicates.is_nil_clean_s": "predicates.is_nil_clean",
    "predicates.thm1_condition_s": "predicates.thm1_condition",
    **{f"suites.{sid}_s": f"suites.{sid}" for sid in SUITE_IDS},
    "core.verify_ring_axioms_s": "core.verify_ring_axioms",
    "dsl.elaborate_s": "dsl.elaborate",
    "constructions.build_s": "constructions.build",
}


def layer_metrics(dump: dict) -> tuple[dict[str, float], dict[str, int]]:
    """(metric values, spans counted per metric) from one span dump.

    A span nested in a span of the same name is not counted again, so
    recursive calls (``dsl.elaborate`` on sub-expressions, a builder calling
    another builder) add their time once.  A layer's self time is its spans'
    durations minus the part their child spans cover.
    """
    spans = dump["spans"]
    counts = dump["counts"]
    outer: list[bool] = []
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _attrs) in enumerate(spans):
        p = parent
        nested = False
        while p is not None:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        outer.append(not nested)
        if parent is not None:
            child_time[parent] += end - start

    values: dict[str, float] = {m: 0.0 for m in PREDICTED}
    seen: dict[str, int] = {m: 0 for m in PREDICTED}
    by_name = {name: metric for metric, name in _TOTALS.items()}
    for i, (name, start, end, _parent, attrs) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            values[f"{layer}.self_s"] += dur - child_time[i]
            seen[f"{layer}.self_s"] += 1
        metric = by_name.get(name)
        if metric is not None and outer[i]:
            values[metric] += dur
            seen[metric] += 1
        if name == "core.try_tables":
            values["core.tables_built"] += 1
            values["core.table_bytes"] += attrs["bytes_computed"]
            seen["core.tables_built"] += 1
            seen["core.table_bytes"] += 1
        elif name == "core.verify_ring_axioms":
            values["core.verify_ring_axioms_max_s"] = max(values["core.verify_ring_axioms_max_s"], dur)
            seen["core.verify_ring_axioms_max_s"] += 1
        elif name == "predicates.is_n_uu":
            values["predicates.is_n_uu.calls"] += 1
            seen["predicates.is_n_uu.calls"] += 1
            path = attrs["path"]
            if outer[i] and path in ("table", "scan"):
                values[f"predicates.is_n_uu.{path}_s"] += dur
                seen[f"predicates.is_n_uu.{path}_s"] += 1
    for name in ("suites.records", "suites.skipped"):
        values[name] = counts.get(name, 0)
        seen[name] = counts.get(name, 0)
    return values, seen


def coverage_problems(workload: str, seen: dict[str, int]) -> list[str]:
    """Metrics predicted to move on ``workload`` that recorded no span there,
    and metrics that must stay silent there but did not."""
    problems = []
    for metric, (_e2e, workloads) in PREDICTED.items():
        if workload in workloads and seen[metric] == 0:
            problems.append(f"{metric} recorded no span on {workload}")
    for metric, workloads in ABSENT.items():
        if workload in workloads and seen[metric] != 0:
            problems.append(f"{metric} recorded {seen[metric]} spans on {workload}")
    return problems
