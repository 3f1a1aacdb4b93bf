"""Ring-class predicates and element-level decomposition finders.

Every universally quantified predicate reports the first violating element
in ascending code order; every existential search returns the minimal
witness (code order, then lexicographic tuples), so results are
deterministic and re-checkable through plain ring arithmetic.

Each decomposition test is written once, as a mask ok(a, x) on code arrays
through R.ops(): its element finder takes the least x in the row of a, and
its ring predicate runs it over all codes.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .constructions import IdealSet, IntegersOracle, decode_digits, prime_power
from .core import BLOCK_ENTRIES, Elem, FiniteRing, Verdict, characteristic
from .errors import AxiomViolation, NotAPrimePower, WrongRingKind
from .invariants import cache, multiplicative_order, vector_pow_by

MAX_POW_EXPONENT = 1 << 62
# the note of is_n_uu verdicts decided without the ring's tables
_NO_TABLES = "found by unit powers without tables"


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry of a 1-D mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _first_uncovered(R: FiniteRing, cols: np.ndarray, ok) -> Optional[int]:
    """Least code a such that ok(a, c) fails for every c in cols, or None.

    ok gets a column of codes and a row of cols and returns their broadcast
    boolean mask; codes go in ascending row blocks of at most BLOCK_ENTRIES
    entries, so no N x N temporary is built.
    """
    cols = cols[None, :]
    step = max(1, BLOCK_ENTRIES // max(1, cols.size))
    for lo in range(0, R.size, step):
        rows = np.arange(lo, min(lo + step, R.size), dtype=np.int64)[:, None]
        bad = _first(~ok(rows, cols).any(axis=1))
        if bad is not None:
            return lo + bad
    return None


def _least_failure(bad: Optional[int]) -> Verdict:
    """Verdict of a universal check whose least failing element is bad (None: holds)."""
    return Verdict(bad is None, witness=None if bad is None else [("a", bad)])


# ---------------------------------------------------------------------------
# the unit-power predicates
# ---------------------------------------------------------------------------


def _n_uu_without_tables(R: FiniteRing, n: int) -> Verdict:
    """u**n - 1 for every unit at once through R.ops(), for rings without tables.

    The units are the construction's unit mask.  Without one, each code
    whose defect a**n - 1 is not nilpotent is a candidate, in ascending
    order, and the first with a two-sided inverse (read off one row a*x) is
    the witness.  Either way the witness is the least failing unit, and it
    is re-verified with an explicit two-sided inverse.
    """
    ops = R.ops()
    codes = np.arange(R.size, dtype=np.int64)
    mask = ops.unit_mask()
    candidates = codes if mask is None else np.flatnonzero(mask)
    defect = ops.add(vector_pow_by(ops.mul, candidates, n, R.one), R.neg(R.one))
    for a in candidates[~cache(R).nil_mask[defect]].tolist():
        inverse = np.flatnonzero(ops.mul(a, codes) == R.one)
        if inverse.size and int(ops.mul(int(inverse[0]), a)) == R.one:
            return Verdict(False, witness=[("u", a)], note=_NO_TABLES)
        if mask is not None:
            raise AxiomViolation(f"unit mask of {R.label} admits code {a}, which has no two-sided inverse")
    return Verdict(True, note=_NO_TABLES)


def is_n_uu(R, n: int) -> Verdict:
    """Whether every unit's n-th power is unipotent (1 + nilpotent).

    The n with u**n - 1 nilpotent are the multiples of the unit's exponent
    d_u (powers of u commute, and a sum of commuting nilpotents is
    nilpotent), so R is n-UU exactly when uu_exponent(R) divides n, and the
    witness is the least unit u with d_u not dividing n.

    Rings beyond the memo budget are decided without their tables, by
    raising every unit to the n-th power through R.ops()
    (_n_uu_without_tables); the note says so, and the witness is again the
    least failing unit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(R, IntegersOracle):
        if n % 2 == 0:
            return Verdict(True, exponents={"uu_exponent": 2})
        return Verdict(False, witness=[("u", -1)], exponents={"uu_exponent": 2})
    if not R.table_capable:
        return _n_uu_without_tables(R, n)
    c = cache(R)
    d = c.uu_exponent
    if n % d == 0:
        return Verdict(True, exponents={"uu_exponent": d})
    witness = int(c.units[np.flatnonzero(n % c.unit_unipotence_exponents)[0]])
    return Verdict(False, witness=[("u", witness)], exponents={"uu_exponent": d})


def is_uu(R) -> Verdict:
    """Whether every unit is unipotent."""
    return is_n_uu(R, 1)


def is_pi_uu(R) -> Verdict:
    """Whether each unit has some unipotent power (exponent may depend on the unit)."""
    if isinstance(R, IntegersOracle):
        return Verdict(True, exponents={"1": 1, "-1": 2})
    c = cache(R)
    exps = {
        str(int(u)): int(d)
        for u, d in zip(c.units, c.unit_unipotence_exponents)
    }
    # every unit of a finite ring has u**ord(u) = 1, so this always holds
    return Verdict(True, exponents=exps)


def is_periodic_element(a: Elem) -> Verdict:
    """Minimal j >= 1 then minimal i > j with a**i = a**j, by cycle detection."""
    R = a.ring
    seen = {a.code: 1}
    x = a.code
    i = 2
    while True:
        x = R.mul(x, a.code)
        if x in seen:
            j = seen[x]
            return Verdict(True, exponents={"i": i, "j": j})
        seen[x] = i
        i += 1
        if i > R.size + 2:
            raise AxiomViolation("power sequence failed to cycle in a finite ring")


# ---------------------------------------------------------------------------
# nil-clean style decompositions
# ---------------------------------------------------------------------------


def _nil_clean_split(R: FiniteRing):
    """ok(a, e) on code arrays: a - e is nilpotent."""
    ops = R.ops()
    nil = cache(R).nil_mask
    return lambda a, e: nil[ops.add(a, ops.neg(e))]


def _splits(R: FiniteRing):
    """ok(a, x) on code arrays: a - x is nilpotent and commutes with a.

    a commutes with a - x exactly when it commutes with x.
    """
    ops = R.ops()
    nil = cache(R).nil_mask
    return lambda a, x: nil[ops.add(a, ops.neg(x))] & (ops.mul(a, x) == ops.mul(x, a))


def _split_off(a: Elem, ok, cols: np.ndarray, role: str) -> Verdict:
    """The least x in cols with ok(a, x), as the witness (role, x), (q, a - x)."""
    k = _first(ok(a.code, cols))
    if k is None:
        return Verdict(False)
    x = int(cols[k])
    return Verdict(True, witness=[(role, x), ("q", a.ring.sub(a.code, x))])


def is_strongly_n_nil_clean(R, n: int) -> Verdict:
    """Whether a - a**n is nilpotent for every element a, through R.ops(),
    so rings beyond the memo budget are decided too; the witness is the
    least failing a."""
    if n < 2:
        raise ValueError("strongly n-nil-clean needs n >= 2")
    if isinstance(R, IntegersOracle):
        R.reject("is_strongly_n_nil_clean")
    c = cache(R)
    ops = R.ops()
    codes = np.arange(R.size, dtype=np.int64)
    return _least_failure(_first(~c.nil_mask[ops.add(codes, ops.neg(c.pow_all(n)))]))


def strongly_n_nil_clean_decompose(a: Elem, n: int) -> Verdict:
    """Minimal n-potent f with a - f nilpotent and commuting with it."""
    if n < 2:
        raise ValueError("decomposition needs n >= 2")
    return _split_off(a, _splits(a.ring), cache(a.ring).n_potents(n), "f")


def is_strongly_m_nil_clean_element(a: Elem, m: int) -> Verdict:
    """Element-level strong m-nil-clean decomposition (m-potent plus nilpotent)."""
    return strongly_n_nil_clean_decompose(a, m)


def nil_clean_decompose(a: Elem) -> Verdict:
    """Minimal idempotent e with a - e nilpotent (no commutation required)."""
    return _split_off(a, _nil_clean_split(a.ring), cache(a.ring).idempotents, "e")


def is_nil_clean(R) -> Verdict:
    """Whether every element is an idempotent plus a nilpotent (no commuting asked)."""
    if isinstance(R, IntegersOracle):
        R.reject("is_nil_clean")
    return _least_failure(_first_uncovered(R, cache(R).idempotents, _nil_clean_split(R)))


def _eu_pairs(R: FiniteRing):
    """Lexicographically ordered commuting (idempotent, unit) pairs with products."""
    c = cache(R)
    key = "eu_pairs"
    if key not in c._d:
        mul = R.ops().mul
        E = c.idempotents
        U = c.units
        pe = np.repeat(E, U.size)
        pu = np.tile(U, E.size)
        eu = mul(pe, pu)
        keep = eu == mul(pu, pe)
        c._d[key] = (pe[keep], pu[keep], eu[keep])
    return c._d[key]


def _pi_regular_split(R: FiniteRing):
    """ok(a, k) on code arrays and indices k of _eu_pairs(R): with (e, u) the
    k-th pair, w = a - e*u is nilpotent and commutes with e and u."""
    ops = R.ops()
    nil = cache(R).nil_mask
    pe, pu, eu = _eu_pairs(R)

    def ok(a, k):
        w = ops.add(a, ops.neg(eu[k]))
        e, u = pe[k], pu[k]
        return nil[w] & (ops.mul(e, w) == ops.mul(w, e)) & (ops.mul(u, w) == ops.mul(w, u))

    return ok


def _no_pi_regular_split(R: FiniteRing, code: int) -> AxiomViolation:
    return AxiomViolation(f"no strongly pi-regular decomposition for code {code} in finite ring {R.label}")


def pi_regular_decompose(a: Elem) -> Verdict:
    """a = e*u + w with commuting idempotent e, unit u, nilpotent w.

    Always succeeds on a finite ring; a failure is an engine bug, not a
    counterexample.
    """
    R = a.ring
    pe, pu, eu = _eu_pairs(R)
    k = _first(_pi_regular_split(R)(a.code, np.arange(eu.size)))
    if k is None:
        raise _no_pi_regular_split(R, a.code)
    return Verdict(True, witness=[("e", int(pe[k])), ("u", int(pu[k])), ("w", R.sub(a.code, int(eu[k])))])


def strongly_pi_regular(R) -> Verdict:
    """Constructive check that every element admits the e*u + w decomposition.

    All commuting (e, u) pairs are tried against all elements at once; the
    success is memoized per ring.  The least undecomposable code raises
    AxiomViolation.
    """
    if isinstance(R, IntegersOracle):
        R.reject("strongly_pi_regular")
    c = cache(R)
    if "pi_regular" not in c._d:
        bad = _first_uncovered(R, np.arange(_eu_pairs(R)[2].size), _pi_regular_split(R))
        if bad is not None:
            raise _no_pi_regular_split(R, bad)
        c._d["pi_regular"] = True
    return Verdict(True)


# ---------------------------------------------------------------------------
# the six equivalent characterizations of strongly n-nil-clean rings
# ---------------------------------------------------------------------------


def _unit_n_potents(R: FiniteRing, n: int) -> np.ndarray:
    """Units v with v**n = v, i.e. v**(n-1) = 1."""
    c = cache(R)
    key = ("unit_npot", n)
    if key not in c._d:
        powers = vector_pow_by(R.ops().mul, c.units, n - 1, R.one)
        c._d[key] = c.units[powers == R.one]
    return c._d[key]


def _ev_decomposable(R: FiniteRing, n: int, middle: str) -> Verdict:
    """a = e*v + b with e idempotent, v an n-potent unit, b nilpotent, ab = ba,
    and the stated e/v compatibility ('ev=ve' or 've=eve')."""
    mul = R.ops().mul
    E = cache(R).idempotents[:, None]
    V = _unit_n_potents(R, n)[None, :]
    ev = mul(E, V)
    ve = mul(V, E)
    if middle == "ev=ve":
        keep = ev == ve
    elif middle == "ve=eve":
        keep = ve == mul(E, ve)
    else:
        raise ValueError(middle)
    return _least_failure(_first_uncovered(R, np.unique(ev[keep]), _splits(R)))


def thm1_condition(R, n: int, which: int) -> Verdict:
    """One of the six equivalent ways to say 'strongly n-nil-clean' (n >= 2):

    1. every element splits as n-potent + commuting nilpotent;
    2. a = ev + b with e idempotent, v an n-potent unit, ab = ba, ev = ve;
    3. same with ve = eve;
    4. a - a**n is nilpotent for all a;
    5. every a**(n-1) is a strongly nil-clean element;
    6. strongly pi-regular and every unit's (n-1)-th power is unipotent.
    """
    if n < 2:
        raise ValueError("the equivalence needs n >= 2")
    if isinstance(R, IntegersOracle):
        R.reject("thm1_condition")
    if which == 1:
        return _least_failure(_first_uncovered(R, cache(R).n_potents(n), _splits(R)))
    if which == 2:
        return _ev_decomposable(R, n, "ev=ve")
    if which == 3:
        return _ev_decomposable(R, n, "ve=eve")
    if which == 4:
        return is_strongly_n_nil_clean(R, n)
    if which == 5:
        c = cache(R)
        powers = c.pow_all(n - 1)
        split = _splits(R)
        return _least_failure(_first_uncovered(R, c.idempotents, lambda a, e: split(powers[a], e)))
    if which == 6:
        strongly_pi_regular(R)  # raises on engine bugs; always holds when finite
        return is_n_uu(R, n - 1)
    raise ValueError("condition index must be 1..6")


# ---------------------------------------------------------------------------
# numeric criteria and group-ring operations
# ---------------------------------------------------------------------------


def lcm_criterion(q: int, m: int) -> int:
    """lcm(q**i - 1 for i = 1..m), the matrix-ring unipotence exponent over GF(q)."""
    if prime_power(q) is None:
        raise NotAPrimePower(f"{q} is not a prime power")
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    return math.lcm(*[q**i - 1 for i in range(1, m + 1)])


def nilpotency_index(R: FiniteRing, a: int) -> int:
    """Minimal t >= 1 with a**t = 0; raises for non-nilpotents."""
    x = a
    t = 1
    while x != R.zero:
        x = R.mul(x, a)
        t += 1
        if t > R.size + 1:
            raise ValueError(f"code {a} is not nilpotent in {R.label}")
    return t


def unipotent_order_check(a: Elem) -> Verdict:
    """For nilpotent a with a**(s+1) = 0 and char m: (1 - a)**(m**s) must be 1."""
    R = a.ring
    s = nilpotency_index(R, a.code) - 1
    m = characteristic(R)
    exponent = m**s
    note = None
    used = exponent
    if exponent > MAX_POW_EXPONENT:
        base_order = multiplicative_order(R, R.sub(R.one, a.code))
        used = exponent % base_order or base_order
        note = "exponent reduced modulo the multiplicative order"
    value = R.pow_code(R.sub(R.one, a.code), used)
    return Verdict(
        value == R.one,
        witness=None if value == R.one else [("a", a.code)],
        exponents={"m": m, "s": s, "exponent": used},
        note=note,
    )


def _augmentations(RG: FiniteRing, codes: np.ndarray) -> np.ndarray:
    """Coefficient sums, in the base ring, of the group-ring elements with these codes."""
    if RG.kind != "groupring":
        raise WrongRingKind(f"{RG.label} is not a group ring")
    base: FiniteRing = RG.meta["base"]
    add = base.ops().add
    total = np.full(codes.shape, base.zero, dtype=np.int64)
    for coefficient in decode_digits(RG, codes):
        total = add(total, coefficient)
    return total


def augmentation(x: Elem) -> Elem:
    """Coefficient sum of a group-ring element, landing in the base ring."""
    total = int(_augmentations(x.ring, np.array([x.code]))[0])
    return x.ring.meta["base"].elem(total)


def augmentation_ideal(RG: FiniteRing) -> IdealSet:
    """Kernel of the augmentation map, verified to be a two-sided ideal."""
    totals = _augmentations(RG, np.arange(RG.size, dtype=np.int64))
    ideal = IdealSet(RG, totals == RG.meta["base"].zero, [])
    ok, why = ideal.verify_ideal()
    if not ok:
        raise AxiomViolation(f"augmentation kernel of {RG.label} is not an ideal: {why}")
    return ideal
