"""Expected outputs of each workload, and the count of operations that miss them.

The files under ``perfbench/expected/`` were recorded from the commit that
introduced the benchmark:

- ``verify_corpus.jsonl``: ``ringlab verify all --threads 1`` stdout, with
  ``"elapsed_ms": <int>`` normalised to ``"elapsed_ms": _`` as the
  thread-determinism acceptance test does (one operation per record);
- ``classify_boundary.json``: the ``classify --format json`` payload of each
  expression (one operation per expression);
- ``axioms_corpus.json``: the ``verify_ring_axioms`` verdict of each corpus
  ring by corpus index (one operation per ring).

Re-record them with ``python3 perfbench/expected.py --record`` only when a
change is meant to alter the output, and say so in CHANGES.md.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _path(workload: str) -> str:
    ext = "jsonl" if workload == "verify_corpus" else "json"
    return os.path.join(EXPECTED_DIR, f"{workload}.{ext}")


def normalise_verify(lines: list[str]) -> list[str]:
    return [_ELAPSED.sub('"elapsed_ms": _', line) for line in lines]


def load(workload: str):
    with open(_path(workload), encoding="utf-8") as fh:
        if workload == "verify_corpus":
            return fh.read().splitlines()
        return json.load(fh)


def count_failed(workload: str, outputs: dict, expected) -> int:
    """Operations of one pass that raised, exited non-zero or differ from ``expected``."""
    if workload == "verify_corpus":
        if outputs["exit"] != 0:
            return len(expected)
        got = normalise_verify(outputs["lines"])
        # a missing or extra record counts as one failed operation each
        mismatched = sum(1 for a, b in zip(got, expected) if a != b)
        return min(len(expected), mismatched + abs(len(got) - len(expected)))
    if workload == "classify_boundary":
        by_expr = {op["expr"]: op for op in outputs["ops"]}
        failed = 0
        for expr, payload in expected.items():
            op = by_expr.get(expr)
            if op is None or op["exit"] != 0 or op["payload"] != payload:
                failed += 1
        return failed
    by_index = {str(op["index"]): op for op in outputs["ops"]}
    failed = 0
    for index, verdict in expected.items():
        op = by_index.get(index)
        if op is None or {k: v for k, v in op.items() if k != "index"} != verdict:
            failed += 1
    return failed


def tamper(workload: str, outputs: dict) -> dict:
    """A copy of ``outputs`` with exactly one operation's result altered."""
    bad = copy.deepcopy(outputs)
    if workload == "verify_corpus":
        bad["lines"][0] = bad["lines"][0].replace('"holds": true', '"holds": false', 1)
    elif workload == "classify_boundary":
        bad["ops"][0]["payload"]["uu_exponent"] += 1
    else:
        bad["ops"][0]["holds"] = not bad["ops"][0]["holds"]
    return bad


def checker_counts_tampering(workload: str, clean_outputs: dict, expected) -> bool:
    """Whether altering one operation of a pass with no failures yields exactly
    one failure, so that a checker which passes everything is caught."""
    return count_failed(workload, tamper(workload, clean_outputs), expected) == 1


def _as_expected(workload: str, outputs: dict):
    if workload == "verify_corpus":
        if outputs["exit"] != 0:
            raise SystemExit("verify all exited non-zero; not recording")
        return normalise_verify(outputs["lines"])
    if workload == "classify_boundary":
        if any(op["exit"] != 0 for op in outputs["ops"]):
            raise SystemExit("a classify call exited non-zero; not recording")
        return {op["expr"]: op["payload"] for op in outputs["ops"]}
    ops = sorted(outputs["ops"], key=lambda op: op["index"])
    return {str(op["index"]): {k: v for k, v in op.items() if k != "index"} for op in ops}


def record() -> None:
    """Run one pass of every workload and write its outputs as the expected ones."""
    from workloads import WORKLOADS

    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             "--workload", workload, "--seed", "0", "--mode", "pass"],
            capture_output=True, text=True, check=True,
        )
        outputs = json.loads(proc.stdout.splitlines()[-1])["outputs"]
        data = _as_expected(workload, outputs)
        with open(_path(workload), "w", encoding="utf-8") as fh:
            if workload == "verify_corpus":
                fh.write("\n".join(data) + "\n")
            else:
                json.dump(data, fh, indent=1, sort_keys=True)
                fh.write("\n")
        print(f"{workload}: {len(data)} operations recorded")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/expected.py --record")
    record()
