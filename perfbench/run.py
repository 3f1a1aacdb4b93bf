"""The ringlab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``verify_corpus``: ``ringlab verify all --threads 1`` through
  ``ringlab.cli.main``, stdout captured; the seed does not change it;
- ``classify_boundary``: ``ringlab classify --format json`` on four rings at
  the memo budget, in an order the seed permutes;
- ``axioms_corpus``: ``core.verify_ring_axioms`` on each of the 40 corpus
  rings, in an order the seed permutes.

Every pass runs in a fresh interpreter (``workloads.py``), so each pays the
lazy table builds as a CLI invocation does.  Times are scaled to a
reference speed of the host, so that the host's drift does not decide
them: ``run_s`` by ``hostclock.py``, which probes the host while the
operations run, and ``setup_s`` by numpy's import time (``workloads.py``).
The wall times go to stderr.  With ``--trace 0`` the run makes at least
``MIN_PASSES`` untraced passes, and more until their timed operations' wall
time adds up to ``--seconds``, and reports the median ``run_s`` and
``peak_rss_mb``.  Before the first timed pass and after each one it makes
``SETUP_BURST`` set-up-only passes, and it reports the median ``setup_s``
over these and the timed passes.  With ``--trace 1`` it makes one untraced
and one traced pass and reports the per-layer metrics of ``spans.py``, with
the tracing overhead as traced minus untraced ``run_s``.  Every pass's
outputs are checked against ``perfbench/expected/``.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
``attempted`` is the number of operations in one pass (439, 4 or 40) and
``failed`` the most that failed in any pass of the run, so both read the
same whatever the number of passes.  Without a ringlab source tree under
``src/`` the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import expected  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_BURST = 2  # set-up-only passes before the first timed pass and after each
MIN_PASSES = 2  # a run of one pass reads a slow spell of the host whole
RUN_DEADLINE_S = 170  # a run must end within 180 s, a hung pass included
SPANS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


class PassFailed(Exception):
    pass


def _pass(workload: str, seed: int, mode: str, deadline: float, spans_path: str | None = None) -> dict:
    """Run one pass in a fresh interpreter and return its result line."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans_path:
        cmd += ["--spans", spans_path]
    # ringlab calls no BLAS routine; a BLAS thread pool would only add its
    # start-up, which waits on the scheduler, to numpy's import (the set-up's
    # yardstick)
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} --mode {mode} ran past the run's deadline") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{workload} --mode {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _check(workload: str, passes: list[dict], want) -> tuple[int, int, bool]:
    """(operations per pass, most failed in one pass, checker ok) over the timed passes."""
    failed = max(expected.count_failed(workload, p["outputs"], want) for p in passes)
    # the tampering check needs a clean pass; with failures the run is not correct anyway
    ok = failed > 0 or expected.checker_counts_tampering(workload, passes[0]["outputs"], want)
    return len(want), failed, ok


def measure(workload: str, seed: int, seconds: int) -> dict:
    """Untraced run: medians over its passes, and over its set-ups."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    _pass(workload, seed, "setup", deadline)  # warm-up: byte-compiles and reads the sources once
    passes: list[dict] = []
    setups: list[dict] = []
    while True:
        setups += [_pass(workload, seed, "setup", deadline) for _ in range(SETUP_BURST)]
        if len(passes) >= MIN_PASSES and sum(p["wall_s"] for p in passes) >= seconds:
            break
        passes.append(_pass(workload, seed, "pass", deadline))
        setups.append(passes[-1])
    want = expected.load(workload)
    attempted, failed, checker_ok = _check(workload, passes, want)
    print(f"{workload}: {len(passes)} passes, wall time median {_median(passes, 'wall_s'):.3f} s,"
          f" set-up wall time median {_median(setups, 'setup_wall_s'):.4f} s", file=sys.stderr)
    return {
        "correct": failed == 0 and checker_ok,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "metrics": {
            "setup_s": {"value": _median(setups, "setup_s"), "unit": "s"},
            "run_s": {"value": _median(passes, "run_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(passes, "peak_rss_mb"), "unit": "MiB"},
        },
    }


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def trace(workload: str, seed: int) -> dict:
    """Traced run: per-layer metrics from one traced pass, beside one untraced pass."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{workload}.spans.json")
    deadline = time.monotonic() + RUN_DEADLINE_S
    _pass(workload, seed, "setup", deadline)
    plain = _pass(workload, seed, "pass", deadline)
    traced = _pass(workload, seed, "pass", deadline, spans_path)
    with open(spans_path, encoding="utf-8") as fh:
        dump = json.load(fh)
    values, seen = spans.layer_metrics(dump)
    problems = spans.coverage_problems(workload, seen)
    problems += [f"{name} escaped the span recorder" for name in dump["unwrapped"]]
    for problem in problems:
        print(f"span coverage: {problem}", file=sys.stderr)
    want = expected.load(workload)
    attempted, failed, checker_ok = _check(workload, [plain, traced], want)
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    metrics["trace.overhead_s"] = {"value": traced["run_s"] - plain["run_s"], "unit": "s"}
    return {
        "correct": failed == 0 and checker_ok and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ringlab benchmark: one run of one workload")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ringlab", "__init__.py")):
        print(f"no ringlab source tree under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = trace(args.workload, args.seed) if args.trace else measure(
            args.workload, args.seed, args.seconds)
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    result.pop("passes", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
