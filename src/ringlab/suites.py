"""Verification suites: exhaustive desk-scale checks of the ring-class laws.

Each suite evaluates both sides of an implication or equivalence
independently on every applicable ring and asserts agreement, carrying a
witness when something fails.  A suite is one entry of SUITE_REGISTRY:
the items it takes and a per-item check, run serially in corpus order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from . import predicates as pred
from .constructions import (
    make_gf,
    make_matrix,
    make_polyquot,
    make_quotient,
    make_corner,
    make_triangular,
    make_zmod,
    scalar_code,
)
from .core import DEFAULT_GUARD, FiniteRing, ResourceGuard, characteristic
from .errors import SizeExceeded
from .groups import FiniteGroup, factorize
from .invariants import cache, idempotents, is_nilpotent_code, nilpotent_codes, uu_exponent

BUILT_INSTANCE_CAP = 1024  # suite-built auxiliary rings stay table-friendly


@dataclass
class RingRecord:
    ring: str
    conditions: dict
    holds: bool
    witness: Optional[list] = None
    elapsed_ms: int = 0
    skipped: Optional[str] = None

    def to_json(self, suite: str, config_echo: dict) -> dict:
        out = {
            "suite": suite,
            "ring": self.ring,
            "conditions": self.conditions,
            "holds": self.holds,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.skipped:
            out["skipped"] = self.skipped
        out["config"] = config_echo
        return out


@dataclass
class SuiteResult:
    suite: str
    records: list[RingRecord] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return all(r.holds or r.skipped for r in self.records)

    def failures(self) -> list[RingRecord]:
        return [r for r in self.records if not r.holds and not r.skipped]


def _record(label: str, check: Callable, *args) -> RingRecord:
    start = time.perf_counter()
    try:
        conditions, holds, witness = check(*args)
    except SizeExceeded as exc:
        return RingRecord(label, {}, True, None, 0, skipped=str(exc))
    return RingRecord(
        label,
        conditions,
        holds,
        witness,
        elapsed_ms=int((time.perf_counter() - start) * 1000),
    )


def _rings(corpus) -> list[FiniteRing]:
    return [r for r in corpus if isinstance(r, FiniteRing)]


def _of_kind(kind: str) -> Callable[[list], list[FiniteRing]]:
    return lambda corpus: [R for R in _rings(corpus) if R.kind == kind]


def _cases(cases: list) -> Callable[[list], list]:
    return lambda corpus: cases


def _matrix_label(case) -> str:
    q, m = case
    return f"M({m},GF({q}))"


def _nuu(R, n: int) -> bool:
    return pred.is_n_uu(R, n).holds


def _morita_n(n: int) -> bool:
    return n % 2 == 1 or (n & (n - 1)) == 0 or n in (6, 10)


def _span(n_range: tuple[int, int], lo: int = 1) -> list[int]:
    return [n for n in range(max(lo, n_range[0]), n_range[1] + 1)]


# ---------------------------------------------------------------------------
# per-item checks: each returns (conditions, holds, witness)
# ---------------------------------------------------------------------------


def _check_thm1_equiv(R, n_range, guard):
    conditions = {}
    for n in _span(n_range, lo=2):
        row = [pred.thm1_condition(R, n, w) for w in range(1, 7)]
        flags = [v.holds for v in row]
        conditions[str(n)] = flags
        if len(set(flags)) != 1:
            bad = [w + 1 for w, v in enumerate(row) if v.holds != flags[0]]
            return conditions, False, [["n", n], ["conditions", bad]]
    return conditions, True, None


MATRIX_LCM_PAIRS = [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (2, 2), (3, 2), (4, 2), (2, 3)]


def _check_matrix_lcm(qm, n_range, guard):
    q, m = qm
    ring = make_matrix(make_gf(q, guard), m, guard)
    brute = uu_exponent(ring)
    formula = pred.lcm_criterion(q, m)
    ok = brute == formula
    return (
        {"brute": brute, "formula": formula},
        ok,
        None if ok else [["q", q], ["m", m]],
    )


def _check_field_uu(R, n_range, guard):
    q = R.meta["q"]
    d = uu_exponent(R)
    agree = {}
    ok = d == q - 1
    for n in _span(n_range):
        lhs = _nuu(R, n)
        rhs = n % (q - 1) == 0
        agree[str(n)] = lhs
        ok = ok and lhs == rhs
    return {"uu_exponent": d, "divisor": q - 1, "n_uu": agree}, ok, None


_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}


def _prime_char(corpus) -> list[FiniteRing]:
    return [
        R for R in _rings(corpus) if len(factorize(characteristic(R))) == 1 and
        characteristic(R) in _PRIMES
    ]


def _check_prop_uu(R, n_range, guard):
    p = characteristic(R)
    c = cache(R)
    conditions = {}
    for d in sorted(k for k in range(1, p) if (p - 1) % k == 0):
        m = d + 1
        lhs = _nuu(R, d)
        rhs = all(
            pred.strongly_n_nil_clean_decompose(R.elem(int(u)), m).holds
            for u in c.units
        )
        conditions[f"m={m}"] = {"(m-1)-UU": lhs, "all units m-snc": rhs}
        if lhs != rhs:
            return conditions, False, [["m", m]]
    # at prime characteristic, pi-UU must coincide with all units periodic
    pi = pred.is_pi_uu(R).holds
    periodic = all(
        pred.is_periodic_element(R.elem(int(u))).holds for u in c.units
    )
    conditions["pi-UU"] = pi
    conditions["units periodic"] = periodic
    return conditions, pi == periodic, None


def _check_odd_2nil(R, n_range, guard):
    two = scalar_code(R, 2)
    conditions = {"two": two}
    for n in _span(n_range):
        if n % 2 == 0 or not _nuu(R, n):
            continue
        nil = is_nilpotent_code(R, two)
        central = bool(cache(R).center_mask[two])
        conditions[str(n)] = {"2 nilpotent": nil, "2 central": central}
        if not (nil and central):
            return conditions, False, [["n", n], ["two", two]]
    return conditions, True, None


def _check_div_uu(R, n_range, guard):
    ns = _span(n_range)
    held = {n: _nuu(R, n) for n in ns}
    for n in ns:
        if not held[n]:
            continue
        for k in range(2 * n, n_range[1] + 1, n):
            if not held[k]:
                return {"base": n}, False, [["n", n], ["k", k]]
    return {"n_uu": {str(n): held[n] for n in ns}}, True, None


def _check_odd_split(R, n_range, guard):
    two = scalar_code(R, 2)
    conditions = {}
    for n in _span(n_range):
        if n % 2 == 0:
            continue
        lhs = _nuu(R, n)
        rhs = is_nilpotent_code(R, two) and all(
            _nuu(R, (1 << k) * n) for k in range(1, 5)
        )
        conditions[str(n)] = {"n-UU": lhs, "2 nil and doubled": rhs}
        if lhs != rhs:
            return conditions, False, [["n", n]]
    return conditions, True, None


def _check_gcd_uu(R, n_range, guard):
    ns = _span(n_range)
    held = {n: _nuu(R, n) for n in ns}
    for m in ns:
        if not held[m]:
            continue
        for n in ns:
            if n < m or not held[n]:
                continue
            g = math.gcd(m, n)
            ok = held.get(g)
            if ok is None:
                ok = _nuu(R, g)
            if not ok:
                return {}, False, [["m", m], ["n", n], ["gcd", g]]
    return {"n_uu": {str(n): held[n] for n in ns}}, True, None


def _check_snc_nc(R, n_range, guard):
    lhs = pred.is_strongly_n_nil_clean(R, 2).holds
    nc = pred.is_nil_clean(R).holds
    two_powers = all(_nuu(R, 1 << k) for k in range(1, 5))
    rhs = nc and two_powers
    conditions = {
        "strongly nil-clean": lhs,
        "nil-clean": nc,
        "2^k-UU": two_powers,
    }
    return conditions, lhs == rhs, None if lhs == rhs else []


def _check_closure_prod(R, n_range, guard):
    comps = R.meta["components"]
    for n in _span(n_range):
        lhs = _nuu(R, n)
        rhs = all(_nuu(c, n) for c in comps)
        if lhs != rhs:
            return {}, False, [["n", n]]
    return {"components": [c.label for c in comps]}, True, None


def _check_closure_corner(R, n_range, guard):
    held = {n: _nuu(R, n) for n in _span(n_range)}
    if not any(held.values()):
        return {"corners": 0}, True, None
    count = 0
    for e in idempotents(R):
        if e == R.zero:
            continue
        corner = make_corner(R, e)
        count += 1
        for n, h in held.items():
            if h and not _nuu(corner, n):
                return {"corners": count}, False, [["e", e], ["n", n]]
    return {"corners": count}, True, None


def _check_nilquot(R, n_range, guard):
    ideal = cache(R).radical()  # verified nilpotent for finite rings
    quotient = make_quotient(R, ideal)
    conditions = {"radical_size": len(ideal), "quotient": quotient.label}
    for n in _span(n_range):
        if _nuu(R, n) != _nuu(quotient, n):
            return conditions, False, [["n", n], ["ideal", "J(R)"]]
    if R.kind == "groupring":
        aug = pred.augmentation_ideal(R)
        if aug.is_nil():
            base = R.meta["base"]
            q2 = make_quotient(R, aug)
            conditions["augmentation_size"] = len(aug)
            for n in _span(n_range):
                if _nuu(R, n) != _nuu(q2, n):
                    return conditions, False, [["n", n], ["ideal", "aug"]]
            if uu_exponent(q2) != uu_exponent(base):
                return conditions, False, [["ideal", "aug"], ["exponent", uu_exponent(q2)]]
    return conditions, True, None


NEG_MATRIX_CASES = [
    # (matrix size, base modulus, n values that must fail)
    (2, 2, (4, 5)),
    (2, 3, (4, 5)),
    (2, 4, (4, 5)),
    (3, 2, (3, 6)),
    (3, 3, (3, 6)),
    (3, 4, (3, 6)),
]


def _check_neg_matrix(case, n_range, guard):
    k, mod, bad_ns = case
    ring = make_matrix(make_zmod(mod, guard), k, guard)
    conditions = {}
    for n in bad_ns:
        verdict = pred.is_n_uu(ring, n)
        conditions[f"{n}-UU"] = verdict.holds
        if verdict.holds:
            return conditions, False, [["n", n]]
    return conditions, True, None


def _morita_pairs_check(R, base_rings, n_range):
    """n-UU equivalence between a construction and its base ring(s)."""
    conditions = {}
    for n in _span(n_range):
        if not _morita_n(n):
            continue
        lhs = _nuu(R, n)
        rhs = all(_nuu(b, n) for b in base_rings)
        conditions[str(n)] = lhs
        if lhs != rhs:
            return conditions, False, [["n", n]]
    return conditions, True, None


def _morita_items(corpus) -> list:
    """Corpus rings the theorem applies to, then the built (family, modulus) pairs."""
    items = []
    for R in _rings(corpus):
        if R.kind == "ks":
            if is_nilpotent_code(R.meta["base"], R.meta["s_code"]):
                items.append(R)
        elif R.kind in ("ft", "trivext"):
            items.append(R)
    for mod in (2, 3, 4):
        items.append(("tn", mod))
        items.append(("poly", mod))
    return items


def _morita_label(item) -> str:
    if isinstance(item, FiniteRing):
        return item.label
    kind, mod = item
    return f"T(n,Z({mod}))" if kind == "tn" else f"Poly(Z({mod}),n)"


def _check_morita(item, n_range, guard):
    if isinstance(item, FiniteRing):
        R = item
        bases = [R.meta["left"], R.meta["right"]] if R.kind == "ft" else [R.meta["base"]]
        return _morita_pairs_check(R, bases, n_range)
    kind, mod = item
    base = make_zmod(mod, guard)
    conditions = {}
    base_ok = {n: _nuu(base, n) for n in _span(n_range, lo=2) if _morita_n(n)}
    for n, rhs in base_ok.items():
        size = base.size ** (n * (n + 1) // 2 if kind == "tn" else n)
        if size > BUILT_INSTANCE_CAP:
            conditions[str(n)] = "skipped (size)"
            continue
        ring = (
            make_triangular(base, n, guard)
            if kind == "tn"
            else make_polyquot(base, n, guard)
        )
        lhs = _nuu(ring, n)
        conditions[str(n)] = lhs
        if lhs != rhs:
            return conditions, False, [["n", n]]
    return conditions, True, None


THM2_INSTANCES = [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (8, 1), (9, 1), (2, 2), (3, 2), (4, 2), (2, 3)]


def _check_thm2_constructive(qm, n_range, guard):
    q, m = qm
    ring = make_matrix(make_gf(q, guard), m, guard)
    if len(cache(ring).radical()) != 1:
        return {}, False, [["radical", "nonzero"]]
    N = pred.lcm_criterion(q, m)
    conditions = {"lcm": N}
    for n in _span(n_range, lo=2):
        c3 = (n - 1) % N == 0
        c2 = pred.is_strongly_n_nil_clean(ring, n).holds
        c1 = _nuu(ring, n - 1)
        if (c3 and not c2) or (c2 and not c1):
            return conditions, False, [["n", n], ["chain", [c3, c2, c1]]]
        conditions[str(n)] = [c3, c2, c1]
    return conditions, True, None


def _pi_number(n: int, pi: set[int]) -> bool:
    return all(p in pi for p in factorize(n))


def _check_groupring_nec(R, n_range, guard):
    base: FiniteRing = R.meta["base"]
    group: FiniteGroup = R.meta["group"]
    char = characteristic(base)
    conditions = {}
    for n in _span(n_range):
        if not _nuu(R, n):
            continue
        pi = set(factorize(char)) | set(factorize(n))
        base_ok = _nuu(base, n)
        orders_ok = all(
            _pi_number(group.element_order(g), pi) for g in range(group.order)
        )
        conditions[str(n)] = {"base": base_ok, "pi_torsion": orders_ok}
        if not (base_ok and orders_ok):
            return conditions, False, [["n", n]]
    return conditions, True, None


def _check_groupring_suf(R, n_range, guard):
    base: FiniteRing = R.meta["base"]
    group: FiniteGroup = R.meta["group"]
    p = group.p_group_prime()
    if p is None or not is_nilpotent_code(base, scalar_code(base, p)):
        return {"applicable": False}, True, None
    conditions = {"p": p}
    for n in _span(n_range):
        if not _nuu(base, n):
            continue
        ok = _nuu(R, n)
        conditions[str(n)] = ok
        if not ok:
            return conditions, False, [["n", n]]
    return conditions, True, None


def _check_unipo(R, n_range, guard):
    checked = 0
    for a in nilpotent_codes(R):
        verdict = pred.unipotent_order_check(R.elem(a))
        checked += 1
        if not verdict.holds:
            return {"checked": checked}, False, [["a", a]]
    return {"checked": checked}, True, None


# ---------------------------------------------------------------------------
# the suite table and entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One suite: the items it checks, each item's record label, and the check.

    ``items`` picks the items from the corpus (its rings, or a fixed case
    list); ``check(item, n_range, guard)`` returns (conditions, holds,
    witness).  Calling the suite records every item in order, serially.
    """

    items: Callable[[list], list]
    check: Callable[..., tuple[dict, bool, Optional[list]]]
    label: Callable[[object], str] = attrgetter("label")

    def __call__(self, corpus, n_range: tuple[int, int], guard: ResourceGuard) -> list[RingRecord]:
        return [
            _record(self.label(item), self.check, item, n_range, guard)
            for item in self.items(corpus)
        ]


SUITE_REGISTRY: dict[str, Callable] = {
    "THM1-EQUIV": Suite(_rings, _check_thm1_equiv),
    "MATRIX-LCM": Suite(_cases(MATRIX_LCM_PAIRS), _check_matrix_lcm, _matrix_label),
    "FIELD-UU": Suite(_of_kind("gf"), _check_field_uu),
    "PROP-UU": Suite(_prime_char, _check_prop_uu),
    "ODD-2NIL": Suite(_rings, _check_odd_2nil),
    "DIV-UU": Suite(_rings, _check_div_uu),
    "ODD-SPLIT": Suite(_rings, _check_odd_split),
    "GCD-UU": Suite(_rings, _check_gcd_uu),
    "SNC-NC": Suite(_rings, _check_snc_nc),
    "CLOSURE-PROD": Suite(_of_kind("product"), _check_closure_prod),
    "CLOSURE-CORNER": Suite(_rings, _check_closure_corner),
    "NILQUOT": Suite(_rings, _check_nilquot),
    "NEG-MATRIX": Suite(
        _cases(NEG_MATRIX_CASES), _check_neg_matrix, lambda case: f"M({case[0]},Z({case[1]}))"
    ),
    "MORITA": Suite(_morita_items, _check_morita, _morita_label),
    "THM2-CONSTRUCTIVE": Suite(_cases(THM2_INSTANCES), _check_thm2_constructive, _matrix_label),
    "GROUPRING-NEC": Suite(_of_kind("groupring"), _check_groupring_nec),
    "GROUPRING-SUF": Suite(_of_kind("groupring"), _check_groupring_suf),
    "UNIPO": Suite(_rings, _check_unipo),
}


def run_suite(
    suite_id: str,
    corpus,
    n_range: tuple[int, int] = (1, 24),
    guard: ResourceGuard = DEFAULT_GUARD,
) -> SuiteResult:
    """Evaluate one registered suite over the corpus.

    Corpus entries that the guard rejected arrive as strings and are
    reported as skipped rather than silently dropped.
    """
    if suite_id not in SUITE_REGISTRY:
        raise KeyError(f"unknown suite {suite_id!r}")
    records = [
        RingRecord(entry, {}, True, None, 0, skipped="guard rejected")
        for entry in corpus
        if isinstance(entry, str)
    ]
    records += SUITE_REGISTRY[suite_id](corpus, n_range, guard)
    return SuiteResult(suite_id, records)


DEFAULT_EXPLORE_MODULI = (2, 3, 4, 5, 7)
DEFAULT_EXPLORE_GROUPS = ("C(2)", "C(3)", "C(4)", "C(5)", "C(6)", "Q8", "D(3)", "D(4)")


def explore_group_rings(
    moduli,
    groups: list[FiniteGroup],
    guard: ResourceGuard = DEFAULT_GUARD,
    size_cap: int = 1024,
):
    """Emit one record per buildable (R, G): exponent data for conjecture hunting.

    No theorem is asserted here; the stream is a dataset.
    """
    from .constructions import make_groupring

    for mod in moduli:
        base = make_zmod(mod, guard)
        for G in groups:
            start = time.perf_counter()
            projected = base.size**G.order
            if projected > min(size_cap, guard.max_ring_size):
                yield {
                    "base": base.label,
                    "group": G.label,
                    "skipped": f"projected size {projected}",
                }
                continue
            RG = make_groupring(base, G, guard)
            d = uu_exponent(RG)
            record = {
                "ring": RG.label,
                "base": base.label,
                "group": G.label,
                "group_order": G.order,
                "group_order_factors": {str(p): k for p, k in factorize(G.order).items()},
                "char": characteristic(base),
                "uu_exponent": d,
                "uu_exponent_base": uu_exponent(base),
                "is_uu": d == 1,
            }
            if d != 1:
                uu = pred.is_uu(RG)
                record["uu_witness"] = uu.witness_codes()[0] if uu.witness else None
            record["elapsed_ms"] = int((time.perf_counter() - start) * 1000)
            yield record
