"""The ringlab command line tool.

Commands: classify, table, verify, list, decompose, explore.  Exit codes:
0 success / all properties hold, 1 property failure (witness printed),
2 usage, parse, or guard error.  All output is deterministic given the
arguments and seed; suite and explore output is JSON-lines with the
semantic configuration echoed into every record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import dsl
from . import predicates as pred
from .constructions import IntegersOracle
from .core import DEFAULT_MAX_RING_SIZE, ResourceGuard, characteristic
from .corpus import build_corpus
from .errors import RinglabError, SizeExceeded
from .invariants import (
    cache,
    idempotents,
    jacobson_radical,
    n_potents,
    nilpotent_codes,
    unit_codes,
    uu_exponent,
)
from .suites import (
    DEFAULT_EXPLORE_GROUPS,
    DEFAULT_EXPLORE_MODULI,
    SUITE_REGISTRY,
    explore_group_rings,
    run_suite,
)

CHECK = "✓"
CROSS = "✗"

TABLE_ROWS = ["Z", "Z(5)", "Z(7)", "M(2,Z(2))", "M(2,Z(3))"]
TABLE_COLUMNS = ["2-UU", "3-UU", "UU", "pi-UU", "6-UU", "8-UU"]
TABLE_EXPECTED = {
    "Z": [True, False, False, True, True, True],
    "Z(5)": [False, False, False, True, False, True],
    "Z(7)": [False, False, False, True, True, False],
    "M(2,Z(2))": [False, True, False, True, True, False],
    "M(2,Z(3))": [False, False, False, True, False, True],
}


@dataclass
class RunConfig:
    n_range: tuple[int, int] = (1, 24)
    max_size: int = DEFAULT_MAX_RING_SIZE
    format: str = "text"
    out: Optional[str] = None
    seed: int = 0
    corpus: Optional[str] = None

    @property
    def guard(self) -> ResourceGuard:
        return ResourceGuard(max_ring_size=self.max_size)

    def echo(self) -> dict:
        # the output path is a runtime-only knob and stays out of the records
        return {
            "n_range": list(self.n_range),
            "max_size": self.max_size,
            "seed": self.seed,
            "corpus": self.corpus or "builtin",
        }


class _Output:
    def __init__(self, path: Optional[str]):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8") if path else sys.stdout

    def line(self, text: str) -> None:
        self._fh.write(text + "\n")

    def close(self) -> None:
        if self.path:
            self._fh.close()


def _mark(flag: bool) -> str:
    return CHECK if flag else CROSS


def _parse_n_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n-range {text!r}; use a..b") from exc
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError("n-range bounds must satisfy 1 <= a <= b")
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n-range", type=_parse_n_range, default=(1, 24), metavar="a..b")
    shared.add_argument("--max-size", type=int, default=None, metavar="N")
    # accepted for compatibility with existing scripts; suites always run serially
    shared.add_argument("--threads", type=int, default=1, metavar="T")
    shared.add_argument("--format", choices=["text", "json", "jsonl"], default="text")
    shared.add_argument("--out", default=None, metavar="PATH")
    shared.add_argument("--seed", type=int, default=0, metavar="S")
    shared.add_argument("--corpus", default=None, metavar="FILE")

    parser = argparse.ArgumentParser(
        prog="ringlab", description="exact computation with finite unital rings"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[shared], help="structural profile of one ring")
    p.add_argument("expr")

    sub.add_parser("table", parents=[shared], help="reproduce the five-ring class table")

    p = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p.add_argument("suite", help="suite id or 'all'")

    p = sub.add_parser("list", parents=[shared], help="list structural elements of a ring")
    p.add_argument(
        "kind",
        choices=["units", "nilpotents", "idempotents", "radical", "center", "npotents"],
    )
    p.add_argument("expr")
    p.add_argument("--n", type=int, default=None, help="exponent for npotents")

    p = sub.add_parser("decompose", parents=[shared], help="find an element decomposition")
    p.add_argument("expr")
    p.add_argument("element", help="element code, optionally prefixed with #")
    p.add_argument("kind", choices=["nilclean", "n-nilclean", "piregular"])
    p.add_argument("--n", type=int, default=2)

    p = sub.add_parser("explore", parents=[shared], help="group-ring exponent dataset")
    p.add_argument("--moduli", default=",".join(str(m) for m in DEFAULT_EXPLORE_MODULI))
    p.add_argument("--groups", default=",".join(DEFAULT_EXPLORE_GROUPS))
    p.add_argument("--size-cap", type=int, default=1024)

    return parser


def _config_from(args) -> RunConfig:
    """The run configuration; ValueError names a bad --max-size or RINGLAB_MAX_SIZE."""
    max_size = args.max_size
    if max_size is None:
        text = os.environ.get("RINGLAB_MAX_SIZE", str(DEFAULT_MAX_RING_SIZE))
        try:
            max_size = int(text)
        except ValueError:
            raise ValueError(f"max size must be a positive integer, got {text!r}") from None
    if max_size < 1:
        raise ValueError(f"max size must be a positive integer, got {max_size}")
    return RunConfig(
        n_range=args.n_range,
        max_size=max_size,
        format=args.format,
        out=args.out,
        seed=args.seed,
        corpus=args.corpus,
    )


def _elaborate(expr: str, config: RunConfig):
    return dsl.elaborate(dsl.parse_ring_expr(expr), config.guard)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _classify_payload(R, config: RunConfig) -> dict:
    """The classify fields; those that enumerate elements read None for the integers oracle."""
    ns = range(max(2, config.n_range[0]), config.n_range[1] + 1)
    finite = not isinstance(R, IntegersOracle)

    def enumerated(value):
        return value() if finite else None

    return {
        "ring": R.label,
        "size": R.size,
        "characteristic": characteristic(R) if finite else 0,
        "units": len(unit_codes(R)),
        "nilpotents": len(nilpotent_codes(R)),
        "idempotents": enumerated(lambda: len(idempotents(R))),
        "radical": enumerated(lambda: len(jacobson_radical(R))),
        "uu_exponent": uu_exponent(R),
        "classes": {
            "UU": pred.is_uu(R).holds,
            "2-UU": pred.is_n_uu(R, 2).holds,
            "3-UU": pred.is_n_uu(R, 3).holds,
            "6-UU": pred.is_n_uu(R, 6).holds,
            "8-UU": pred.is_n_uu(R, 8).holds,
            "pi-UU": pred.is_pi_uu(R).holds,
            "nil-clean": enumerated(lambda: pred.is_nil_clean(R).holds),
            "strongly nil-clean": enumerated(lambda: pred.is_strongly_n_nil_clean(R, 2).holds),
        },
        "strongly_n_nil_clean": {
            str(n): enumerated(lambda: pred.is_strongly_n_nil_clean(R, n).holds) for n in ns
        },
    }


def _fmt_flag(value) -> str:
    return "n/a" if value is None else _mark(value)


def cmd_classify(args, config: RunConfig, out: _Output) -> int:
    R = _elaborate(args.expr, config)
    payload = _classify_payload(R, config)
    if config.format in ("json", "jsonl"):
        payload["config"] = config.echo()
        out.line(json.dumps(payload))
        return 0
    out.line(f"ring: {payload['ring']}")
    size = payload["size"]
    out.line(f"size: {size if size is not None else 'n/a'}")
    out.line(f"characteristic: {payload['characteristic']}")
    for key in ("units", "nilpotents", "idempotents", "radical"):
        value = payload[key]
        out.line(f"|{key}|: {value if value is not None else 'n/a'}")
    out.line(f"uu-exponent: {payload['uu_exponent']}")
    classes = payload["classes"]
    out.line("  ".join(f"{name} {_fmt_flag(flag)}" for name, flag in classes.items()))
    snc = payload["strongly_n_nil_clean"]
    if snc:
        row = " ".join(f"{n}:{_fmt_flag(v)}" for n, v in snc.items())
        out.line(f"strongly n-nil-clean: {row}")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _table_computed(config: RunConfig) -> dict[str, list[bool]]:
    rows = {}
    for label in TABLE_ROWS:
        R = _elaborate(label, config)
        rows[label] = [
            pred.is_n_uu(R, 2).holds,
            pred.is_n_uu(R, 3).holds,
            pred.is_uu(R).holds,
            pred.is_pi_uu(R).holds,
            pred.is_n_uu(R, 6).holds,
            pred.is_n_uu(R, 8).holds,
        ]
    return rows


def cmd_table(args, config: RunConfig, out: _Output) -> int:
    computed = _table_computed(config)
    mismatch = None
    for label in TABLE_ROWS:
        for col, (got, want) in enumerate(zip(computed[label], TABLE_EXPECTED[label])):
            if got != want and mismatch is None:
                mismatch = (label, TABLE_COLUMNS[col], got, want)
    if config.format in ("json", "jsonl"):
        payload = {
            "columns": TABLE_COLUMNS,
            "rows": {label: computed[label] for label in TABLE_ROWS},
            "matches_reference": mismatch is None,
            "config": config.echo(),
        }
        if mismatch:
            payload["mismatch"] = {
                "ring": mismatch[0],
                "column": mismatch[1],
                "computed": mismatch[2],
                "expected": mismatch[3],
            }
        out.line(json.dumps(payload))
    else:
        width = max(len(r) for r in TABLE_ROWS) + 2
        out.line(" " * width + "  ".join(f"{c:>5}" for c in TABLE_COLUMNS))
        for label in TABLE_ROWS:
            cells = "  ".join(f"{_mark(v):>5}" for v in computed[label])
            out.line(f"{label:<{width}}{cells}")
        if mismatch is None:
            out.line(f"all {len(TABLE_ROWS) * len(TABLE_COLUMNS)} cells match the reference table")
    if mismatch:
        ring, column, got, want = mismatch
        print(
            f"table mismatch at ({ring}, {column}): computed {_mark(got)}, expected {_mark(want)}",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    # '#' opens a comment unless a digit follows (element references like #3)
    for i, ch in enumerate(line):
        if ch == "#" and not (i + 1 < len(line) and line[i + 1].isdigit()):
            return line[:i]
    return line


def _load_corpus(config: RunConfig):
    if config.corpus is None:
        return build_corpus(config.guard)
    entries = []
    with open(config.corpus, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = _strip_comment(raw).strip()
            if not line:
                continue
            try:
                entries.append(dsl.elaborate(dsl.parse_ring_expr(line), config.guard))
            except SizeExceeded as exc:
                entries.append(f"{line}: {exc}")
    return entries


def cmd_verify(args, config: RunConfig, out: _Output) -> int:
    suite_ids = list(SUITE_REGISTRY) if args.suite == "all" else [args.suite]
    for suite_id in suite_ids:
        if suite_id not in SUITE_REGISTRY:
            print(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_REGISTRY)}", file=sys.stderr)
            return 2
    corpus = _load_corpus(config)
    echo = config.echo()
    all_hold = True
    for suite_id in suite_ids:
        result = run_suite(suite_id, corpus, n_range=config.n_range, guard=config.guard)
        for record in result.records:
            out.line(json.dumps(record.to_json(suite_id, echo)))
        if not result.holds:
            all_hold = False
            for failure in result.failures():
                print(
                    f"suite {suite_id} failed on {failure.ring}: witness {failure.witness}",
                    file=sys.stderr,
                )
    return 0 if all_hold else 1


# ---------------------------------------------------------------------------
# list / decompose
# ---------------------------------------------------------------------------


def cmd_list(args, config: RunConfig, out: _Output) -> int:
    R = _elaborate(args.expr, config)
    if isinstance(R, IntegersOracle):
        if args.kind == "units":
            out.line(", ".join(str(u) for u in R.units))
            return 0
        if args.kind == "nilpotents":
            out.line(", ".join(str(a) for a in R.nilpotents))
            return 0
        print(f"cannot enumerate {args.kind} of the integers", file=sys.stderr)
        return 2
    if args.kind == "units":
        codes = unit_codes(R)
    elif args.kind == "nilpotents":
        codes = nilpotent_codes(R)
    elif args.kind == "idempotents":
        codes = idempotents(R)
    elif args.kind == "radical":
        codes = jacobson_radical(R).members().tolist()
    elif args.kind == "center":
        codes = [int(c) for c in cache(R).center_mask.nonzero()[0]]
    else:
        if args.n is None or args.n < 2:
            print("list npotents needs --n >= 2", file=sys.stderr)
            return 2
        codes = n_potents(R, args.n)
    if config.format in ("json", "jsonl"):
        out.line(
            json.dumps(
                {
                    "ring": R.label,
                    "kind": args.kind,
                    "codes": [int(c) for c in codes],
                    "rendered": {str(int(c)): R.render(int(c)) for c in codes},
                    "config": config.echo(),
                }
            )
        )
        return 0
    for c in codes:
        out.line(f"#{int(c)}\t{R.render(int(c))}")
    return 0


def cmd_decompose(args, config: RunConfig, out: _Output) -> int:
    if args.kind == "n-nilclean" and args.n < 2:
        print("decompose n-nilclean needs --n >= 2", file=sys.stderr)
        return 2
    R = _elaborate(args.expr, config)
    if isinstance(R, IntegersOracle):
        print("decompositions need an enumerable ring", file=sys.stderr)
        return 2
    raw = args.element.lstrip("#")
    try:
        code = int(raw)
    except ValueError:
        print(f"bad element code {args.element!r}", file=sys.stderr)
        return 2
    if not 0 <= code < R.size:
        print(f"element #{code} outside {R.label} of size {R.size}", file=sys.stderr)
        return 2
    elem = R.elem(code)
    if args.kind == "nilclean":
        verdict = pred.nil_clean_decompose(elem)
    elif args.kind == "n-nilclean":
        verdict = pred.strongly_n_nil_clean_decompose(elem, args.n)
    else:
        verdict = pred.pi_regular_decompose(elem)
    if config.format in ("json", "jsonl"):
        payload = {
            "ring": R.label,
            "element": code,
            "kind": args.kind,
            "found": verdict.holds,
            "witness": verdict.witness,
            "config": config.echo(),
        }
        out.line(json.dumps(payload))
        return 0
    if not verdict.holds:
        out.line("none")
        return 0
    parts = "  ".join(f"{role}=#{c} ({R.render(c)})" for role, c in verdict.witness)
    out.line(parts)
    return 0


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------


def _split_top_level(text: str) -> list[str]:
    """Split a comma-separated list, ignoring commas inside parentheses."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


def cmd_explore(args, config: RunConfig, out: _Output) -> int:
    try:
        moduli = [int(m) for m in _split_top_level(args.moduli)]
    except ValueError:
        print(f"bad moduli list {args.moduli!r}", file=sys.stderr)
        return 2
    group_exprs = _split_top_level(args.groups)
    if not moduli or not group_exprs:
        print("explore needs a nonempty catalog of moduli and groups", file=sys.stderr)
        return 2
    groups = [dsl.elaborate_group(dsl.parse_group_expr(g)) for g in group_exprs]
    echo = config.echo()
    for record in explore_group_rings(moduli, groups, config.guard, args.size_cap):
        record["config"] = echo
        out.line(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_COMMANDS = {
    "classify": cmd_classify,
    "table": cmd_table,
    "verify": cmd_verify,
    "list": cmd_list,
    "decompose": cmd_decompose,
    "explore": cmd_explore,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        config = _config_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        out = _Output(config.out)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, config, out)
    except RinglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        out.close()


if __name__ == "__main__":
    sys.exit(main())
