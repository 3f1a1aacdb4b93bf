"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --mode pass|setup
                                   [--spans PATH]

The pass imports ringlab from the checkout's ``src``, builds the workload's
rings (the set-up), then runs the timed operations and prints one JSON line:
``setup_s`` (scaled to a reference speed of numpy's import) and ``run_s``
(scaled to the reference host speed of ``hostclock.py``), ``setup_wall_s``
and ``wall_s`` (as the clock read them), ``peak_rss_mb`` and the raw
``outputs`` that ``expected.py`` compares against the recorded ones.
``--mode setup`` stops after the set-up.  With ``--spans PATH`` the pass
installs the span recorder of ``spans.py`` right after the import and
writes the spans to PATH at exit; without it nothing in ringlab is patched.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Set-up times are scaled to a host on which numpy's import takes this long.
# The set-up is import work, which the host's drift slows differently from
# the timed operations; numpy's import, timed in the same process, slows with
# it, and ringlab's code cannot change it.
NUMPY_IMPORT_REF_S = 0.15
# each expression is at the memo budget: its tables fit, and are built cold
CLASSIFY_EXPRS = ["M(2,Z(8))", "T(3,Z(4))", "TrivExt(Z(64))", "Z(5000)"]
WORKLOADS = ("verify_corpus", "classify_boundary", "axioms_corpus")


def _import_ringlab():
    sys.path.insert(0, SRC)
    import ringlab

    where = os.path.dirname(os.path.abspath(ringlab.__file__))
    if where != os.path.join(SRC, "ringlab"):
        raise SystemExit(f"ringlab imported from {where}, not from {SRC}")


def _call_cli(main, argv: list[str]) -> tuple[int, str]:
    """ringlab's CLI in-process with stdout captured; a raise counts as exit 1."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except Exception as exc:  # an operation that raises is a failed operation
            print(f"{argv}: {exc!r}", file=sys.stderr)
            code = 1
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# set-up: import plus the workload's rings, without operation tables
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, install_spans=None):
    """(state, recorder) for one workload; timing is the caller's."""
    _import_ringlab()
    recorder = install_spans() if install_spans else None
    from ringlab import dsl
    from ringlab.corpus import build_corpus

    with _phase(recorder, "bench.setup"):
        if workload == "classify_boundary":
            exprs = list(CLASSIFY_EXPRS)
            random.Random(seed).shuffle(exprs)
            for e in exprs:
                dsl.elaborate(dsl.parse_ring_expr(e))
            state = {"exprs": exprs}
        else:
            corpus = build_corpus()
            order = list(range(len(corpus)))
            if workload == "axioms_corpus":
                random.Random(seed).shuffle(order)
            # verify_corpus's record order is part of its output: the seed leaves it alone
            state = {"corpus": corpus, "order": order}
    return state, recorder


def _phase(recorder, name: str):
    return recorder.span(name) if recorder else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# timed operations
# ---------------------------------------------------------------------------


def run_verify_corpus(state, clock) -> dict:
    from ringlab.cli import main

    state.clear()  # the CLI builds its own corpus, as a user's invocation does
    gc.collect()
    clock.start()
    code, out = _call_cli(main, ["verify", "all", "--threads", "1"])
    clock.stop()
    return {"exit": code, "lines": out.splitlines()}


def run_classify_boundary(state, clock) -> dict:
    from ringlab.cli import main

    exprs = state["exprs"]
    state.clear()
    ops = []
    for expr in exprs:
        # one CLI invocation per ring: free the previous ring's tables first,
        # as a fresh process would.  Peak memory still depends on the order
        # (508-542 MiB across seeds), so the calls are not fully independent.
        gc.collect()
        clock.start()
        code, out = _call_cli(main, ["classify", expr, "--format", "json"])
        clock.stop()
        try:
            payload = json.loads(out) if code == 0 else None
        except json.JSONDecodeError:
            payload = None
        ops.append({"expr": expr, "exit": code, "payload": payload})
    return {"ops": ops}


def run_axioms_corpus(state, clock) -> dict:
    from ringlab import core

    corpus, order = state["corpus"], state["order"]
    ops = []
    clock.start()
    for i in order:
        R = corpus[i]
        try:
            v = core.verify_ring_axioms(R)
        except Exception as exc:  # an operation that raises is a failed operation
            print(f"axioms {R!r}: {exc!r}", file=sys.stderr)
            ops.append({"index": i, "ring": getattr(R, "label", str(R)), "error": repr(exc)})
            continue
        ops.append({"index": i, "ring": R.label, **v.to_json()})
    clock.stop()
    return {"ops": ops}


RUNNERS = {
    "verify_corpus": run_verify_corpus,
    "classify_boundary": run_classify_boundary,
    "axioms_corpus": run_axioms_corpus,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("pass", "setup"), required=True)
    ap.add_argument("--spans", default=None, metavar="PATH")
    args = ap.parse_args(argv)

    install = None
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        install = spans.install

    start = time.perf_counter()
    import numpy  # noqa: F401  ringlab imports it; timed alone first, it is the yardstick
    numpy_import_s = time.perf_counter() - start
    state, recorder = setup(args.workload, args.seed, install)
    setup_wall_s = time.perf_counter() - start
    result = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * NUMPY_IMPORT_REF_S / numpy_import_s}

    from hostclock import HostClock, Probe

    probe = Probe()
    if args.mode == "pass":
        clock = HostClock(probe)
        if recorder is not None:
            recorder.clock = clock.now  # spans leave the probes out, as run_s does
        with _phase(recorder, "bench.run"):
            outputs = RUNNERS[args.workload](state, clock)
        result.update(wall_s=clock.wall_s, run_s=clock.run_s, outputs=outputs)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["peak_rss_mb"] = peak_mib - probe.resident_mib
    if recorder is not None:
        recorder.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
