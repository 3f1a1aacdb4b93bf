"""Print every workload's end-to-end metrics, and with --trace its layers.

    python3 perfbench/report.py [--trace] [--json PATH]

For each workload this makes one run of ``run.py`` with seed ``SEED`` and
``run_seconds`` from ``BENCHMARK.json``, and prints ``setup_s``, ``run_s``
and ``peak_rss_mb`` with their units and ``ops_failed/ops_total``, where an
operation is a ``verify all`` record, a ``classify`` payload or an axiom
verdict.  ``--trace`` adds a traced run per workload, prints its per-layer
metrics, checks the predicted shares (``share_checks``) and prints the spans
that the baseline in ``perfbench/BASELINE.md`` is cross-checked against.
``--json`` writes everything printed as one JSON document.  The exit code
is 1 when a run is not correct or a share check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0

# named spans of one traced pass: (workload, span name, ring label or None)
CROSS_CHECK_SPANS = [
    ("verify_corpus", "suites.NEG-MATRIX", None),
    ("verify_corpus", "suites.THM1-EQUIV", None),
    ("verify_corpus", "suites.MORITA", None),
    ("classify_boundary", "core.try_tables", "M(2,Z(8))"),
    ("axioms_corpus", "core.verify_ring_axioms", "M(3,Z(2))"),
]


def _largest(metrics: dict, names) -> str:
    return max(names, key=lambda n: metrics[n]["value"])


def share_checks(traced: dict) -> list[tuple[str, bool]]:
    """The per-layer predictions that BENCHMARK.json's workloads rest on."""
    checks = []
    m = traced["verify_corpus"]["metrics"]
    suite = _largest(m, [f"suites.{sid}_s" for sid in spans.SUITE_IDS])
    checks.append((f"largest suite span on verify_corpus is {suite}", suite == "suites.NEG-MATRIX_s"))
    m = traced["classify_boundary"]["metrics"]
    others = [f"{layer}.self_s" for layer in spans.LAYERS if layer != "core"]
    top = _largest(m, ["core.try_tables_s"] + others)
    checks.append((f"largest layer span on classify_boundary is {top}", top == "core.try_tables_s"))
    # that core.verify_ring_axioms_s stays 0 outside axioms_corpus is part of
    # each traced run's own coverage check (spans.ABSENT)
    return checks


def cross_check_spans() -> list[dict]:
    rows = []
    for workload, name, ring in CROSS_CHECK_SPANS:
        with open(os.path.join(run.SPANS_DIR, f"{workload}.spans.json"), encoding="utf-8") as fh:
            dump = json.load(fh)
        total = sum(
            end - start
            for span_name, start, end, _parent, attrs in dump["spans"]
            if span_name == name and (ring is None or attrs["ring"] == ring)
        )
        rows.append({"workload": workload, "span": name, "ring": ring, "seconds": total})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ringlab benchmark summary over every workload")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", default=None, metavar="PATH")
    args = ap.parse_args(argv)

    seconds = run._benchmark()["run_seconds"]
    doc = {"seed": SEED, "seconds": seconds, "untraced": {}, "traced": {}}
    print(f"{'workload':<19} {'setup_s':>10} {'run_s':>10} {'peak_rss_mb':>12}  ops_failed/ops_total  correct")
    for w in WORKLOADS:
        try:
            r = run.measure(w, SEED, seconds)
        except run.PassFailed as exc:
            print(f"{w:<19} failed: {exc}")
            return 1
        doc["untraced"][w] = r
        m = r["metrics"]
        print(
            f"{w:<19} {m['setup_s']['value']:>8.3f} s {m['run_s']['value']:>8.2f} s"
            f" {m['peak_rss_mb']['value']:>9.1f} MiB {r['failed']}/{r['attempted']:<19}"
            f" {r['correct']}"
            + (f"  ({r['passes']} passes)" if r["passes"] > 1 else "")
        )
    if args.trace:
        for w in WORKLOADS:
            try:
                doc["traced"][w] = run.trace(w, SEED)
            except run.PassFailed as exc:
                print(f"traced {w} failed: {exc}")
                return 1
        names = list(spans.PREDICTED) + ["trace.overhead_s"]
        print()
        print(f"{'per-layer metric':<40}" + "".join(f"{w:>19}" for w in WORKLOADS) + "  moves")
        for name in names:
            cells = "".join(f"{doc['traced'][w]['metrics'][name]['value']:>19.4g}" for w in WORKLOADS)
            moves, on = spans.PREDICTED.get(name, ((), ()))
            print(f"{name:<40}{cells}  {','.join(moves)}{' on ' + ','.join(on) if on else ''}")
        print("correct: " + ", ".join(f"{w} {doc['traced'][w]['correct']}" for w in WORKLOADS))
        print()
        doc["share_checks"] = [{"check": text, "holds": ok} for text, ok in share_checks(doc["traced"])]
        for c in doc["share_checks"]:
            print(f"{'holds' if c['holds'] else 'FAILS'}: {c['check']}")
        doc["cross_check_spans"] = cross_check_spans()
        for row in doc["cross_check_spans"]:
            ring = f" on {row['ring']}" if row["ring"] else ""
            print(f"{row['workload']}: {row['span']}{ring} {row['seconds']:.2f} s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    results = list(doc["untraced"].values()) + list(doc["traced"].values())
    ok = all(r["correct"] for r in results) and all(c["holds"] for c in doc.get("share_checks", ()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
