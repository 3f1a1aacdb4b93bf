"""Ring-class predicates: the documented examples plus re-check properties."""

import math

import numpy as np
import pytest

import ringlab as rl
from ringlab import (
    dsl,
    integers_oracle,
    make_corner,
    make_gf,
    make_matrix,
    make_polyquot,
    make_quotient,
    make_triangular,
    make_zmod,
    predicates,
)
from ringlab.constructions import decode_digits
from ringlab.core import DEFAULT_MAX_RING_SIZE
from ringlab.corpus import build_corpus
from ringlab.errors import AxiomViolation, WrongRingKind
from ringlab.groups import cyclic
from ringlab.invariants import (
    cache,
    idempotents,
    jacobson_radical,
    nilpotent_codes,
    unit_codes,
    uu_exponent,
    vector_pow_by,
)
from ringlab.predicates import (
    _eu_pairs,
    _unit_n_potents,
    augmentation,
    augmentation_ideal,
    is_n_uu,
    is_nil_clean,
    is_periodic_element,
    is_pi_uu,
    is_strongly_m_nil_clean_element,
    is_strongly_n_nil_clean,
    is_uu,
    lcm_criterion,
    nil_clean_decompose,
    pi_regular_decompose,
    strongly_n_nil_clean_decompose,
    strongly_pi_regular,
    thm1_condition,
    unipotent_order_check,
)
from ringlab.suites import BUILT_INSTANCE_CAP, MATRIX_LCM_PAIRS, THM2_INSTANCES


# -- n-UU and friends ----------------------------------------------------------


def test_is_n_uu_z5(z5):
    assert is_n_uu(z5, 8).holds
    verdict = is_n_uu(z5, 6)
    assert not verdict.holds
    assert verdict.witness == [("u", 2)]


def test_is_n_uu_m2z2(m2z2):
    assert is_n_uu(m2z2, 3).holds
    assert not is_n_uu(m2z2, 2).holds


def test_is_n_uu_trivial_unit_group():
    assert is_n_uu(make_zmod(2), 1).holds


def test_is_n_uu_matches_exponent_divisibility(z12, m2z2, m2z3):
    for ring in (z12, m2z2, m2z3, make_gf(9)):
        d = uu_exponent(ring)
        for n in range(1, 25):
            assert is_n_uu(ring, n).holds == (n % d == 0)


def _n_uu_by_unit_powers(R, n):
    """(holds, witness) from u**n - 1 over every unit, without unit exponents."""
    c = cache(R)
    tabs = R.tables()
    powers = vector_pow_by(R.ops().mul, c.units, n, R.one)
    bad = np.flatnonzero(~c.nil_mask[tabs.add[powers, tabs.neg[R.one]]])
    if bad.size == 0:
        return True, None
    return False, [("u", int(c.units[bad[0]]))]


def _rings_the_suites_decide():
    """Corpus rings, their R/J(R) and corners, and the suites' built matrix and MORITA rings."""
    corpus = [R for R in build_corpus() if not isinstance(R, str)]
    rings = list(corpus)
    for R in corpus:
        rings.append(make_quotient(R, jacobson_radical(R)))
        rings.extend(make_corner(R, e) for e in idempotents(R) if e != R.zero)
    for q, m in sorted(set(MATRIX_LCM_PAIRS) | set(THM2_INSTANCES)):
        rings.append(make_matrix(make_gf(q), m))
    for mod in (2, 3, 4):
        base = make_zmod(mod)
        for k in range(2, 25):
            if mod ** (k * (k + 1) // 2) <= BUILT_INSTANCE_CAP:
                rings.append(make_triangular(base, k))
            if mod**k <= BUILT_INSTANCE_CAP:
                rings.append(make_polyquot(base, k))
    return rings


def test_is_n_uu_exponent_route_matches_unit_powers():
    # is_n_uu decides from the cached unit exponents; raising every unit to
    # the n-th power is the independent route, for n in 1..24 and the 2^k * n
    # that ODD-SPLIT asks for
    ns = sorted(set(range(1, 25)) | {(1 << k) * n for n in range(1, 25, 2) for k in range(1, 5)})
    for R in _rings_the_suites_decide():
        for n in ns:
            verdict = is_n_uu(R, n)
            assert (verdict.holds, verdict.witness) == _n_uu_by_unit_powers(R, n), (R.label, n)


# -- routes above the memo budget ---------------------------------------------


def _route_guards(size):
    """Guards that send a ring of this size to the table route and to two ops() kernels."""
    return {
        "table": rl.ResourceGuard(),
        # the ring's own two int32 tables miss the budget by one byte; every smaller
        # base fits, so the kernel works through base tables and has their unit masks
        "kernel": rl.ResourceGuard(mul_memo_budget_bytes=8 * size * size - 1),
        # not even Z(2)'s tables (32 bytes) fit: the kernel works through the modular
        # kernels of the Z(n) bases, and no construction has a unit mask
        "scan": rl.ResourceGuard(mul_memo_budget_bytes=16),
    }


def _routes(expr):
    size = dsl.elaborate(dsl.parse_ring_expr(expr)).size
    return {route: dsl.elaborate(dsl.parse_ring_expr(expr), g) for route, g in _route_guards(size).items()}


def _is_nilpotent_by_squaring(R, a):
    """Scalar reference: a^(2^ceil(log2 N)) = 0 is exact in a ring of size N."""
    for _ in range(max(1, math.ceil(math.log2(R.size)))):
        a = R.mul(a, a)
    return a == R.zero


def _unit_inverse_scan(R, u):
    """Inverse of u, or None; bails out at the first repeated product.

    Left multiplication by a non-unit repeats a value (pigeonhole on its
    image), so non-units exit early; a right inverse must also be a left one.
    """
    seen = bytearray(R.size)
    for x in range(R.size):
        p = R.mul(u, x)
        if p == R.one:
            return x if R.mul(x, u) == R.one else None
        if seen[p]:
            return None
        seen[p] = 1
    return None


def _n_uu_by_scan(R, n):
    """(holds, witness) of is_n_uu by an ascending scan in scalar arithmetic."""
    for a in range(R.size):
        if _is_nilpotent_by_squaring(R, R.sub(R.pow_code(a, n), R.one)):
            continue
        if _unit_inverse_scan(R, a) is not None:
            return False, [("u", a)]
    return True, None


def _strongly_n_nil_clean_by_scan(R, n):
    """(holds, witness) of is_strongly_n_nil_clean by an ascending scan in scalar arithmetic."""
    for a in range(R.size):
        if not _is_nilpotent_by_squaring(R, R.sub(a, R.pow_code(a, n))):
            return False, [("a", a)]
    return True, None


NO_TABLES = "found by unit powers without tables"
ROUTE_NOTES = {"table": None, "kernel": NO_TABLES, "scan": NO_TABLES}
UNIT_MASK_RINGS = [
    "M(2,Z(2))", "M(2,Z(3))", "M(2,Z(4))", "M(2,GF(4))", "M(3,Z(2))", "Prod(Z(2),Z(3))", "Prod(Z(4),Z(9))",
]


@pytest.mark.parametrize("expr", UNIT_MASK_RINGS)
def test_is_n_uu_routes_agree(expr):
    # with tables, from unit exponents; without, unit powers over the unit
    # mask ("kernel") or over ascending candidates ("scan"); all against the
    # scalar element scan
    rings = _routes(expr)
    assert rings["table"].table_capable and not rings["kernel"].table_capable
    assert rings["kernel"].ops().unit_mask() is not None and rings["scan"].ops().unit_mask() is None
    for n in range(1, 25):
        verdicts = {route: is_n_uu(R, n) for route, R in rings.items()}
        assert {route: v.note for route, v in verdicts.items()} == ROUTE_NOTES
        expected = _n_uu_by_scan(rings["table"], n)
        assert all((v.holds, v.witness) == expected for v in verdicts.values()), (expr, n, verdicts)


@pytest.mark.parametrize("expr", UNIT_MASK_RINGS + ["T(2,Z(4))", "GF(8)"])
def test_is_strongly_n_nil_clean_routes_agree(expr):
    rings = _routes(expr)
    assert [R.try_tables() is not None for R in rings.values()] == [True, False, False]
    for n in range(2, 9):
        expected = _strongly_n_nil_clean_by_scan(rings["table"], n)
        for R in rings.values():
            verdict = is_strongly_n_nil_clean(R, n)
            assert (verdict.holds, verdict.witness) == expected, (expr, n, verdict)


def test_digit_unit_mask_matches_the_table_units():
    rings = [R for R in build_corpus() if not isinstance(R, str) and R.kind in ("matrix", "product", "zmod")]
    rings += [make_matrix(make_gf(q), m) for q, m in MATRIX_LCM_PAIRS]
    rings += [make_gf(p) for p in (2, 3, 5, 7, 11)]
    assert len(rings) >= 30
    for R in rings:
        assert R.table_capable
        mask = R.ops().unit_mask()
        assert mask is not None and np.array_equal(mask, cache(R).unit_mask), R.label
    # determinants need a commutative base, and other constructions have no digit
    # unit test; the kernel guard keeps ops() from building 4096-element tables
    for expr in ("M(2,T(2,Z(2)))", "T(2,Z(4))", "GF(8)", "TrivExt(Z(4))", "Corner(M(2,Z(2)),#1)"):
        assert _routes(expr)["kernel"].ops().unit_mask() is None, expr


def test_digit_kernel_witness_needs_a_two_sided_inverse():
    R = _routes("M(2,Z(3))")["kernel"]
    # a unit mask that admits zero: its defect -1 is not nilpotent, and it has no inverse
    R._ops = R.ops()._replace(unit_mask=lambda: np.ones(R.size, dtype=bool))
    with pytest.raises(AxiomViolation, match="no two-sided inverse"):
        is_n_uu(R, 1)


def test_candidate_units_need_a_two_sided_inverse():
    # Z(5) with 3*2 patched to 4: 2 keeps the right inverse 3 but loses its left
    # one, and 3 loses both, so the least unit whose defect u - 1 is not
    # nilpotent is 4; the scalar functions alone give this ring's ops()
    guard = rl.ResourceGuard(mul_memo_budget_bytes=16)
    base = make_zmod(5, guard)
    R = rl.FiniteRing(5, base.add, lambda i, j: 4 if (i, j) == (3, 2) else base.mul(i, j), base.neg,
                      one=1, guard=guard)
    assert R.ops().unit_mask() is None
    verdict = is_n_uu(R, 1)
    assert (verdict.holds, verdict.witness, verdict.note) == (False, [("u", 4)], NO_TABLES)


@pytest.mark.parametrize("expr", ["T(2,Z(2))", "T(2,Z(4))"])
def test_is_n_uu_without_a_unit_mask_scans(expr):
    rings = _routes(expr)
    assert rings["kernel"].ops().unit_mask() is None
    for n in range(1, 25):
        table = is_n_uu(rings["table"], n)
        scan = is_n_uu(rings["kernel"], n)
        assert scan.note == NO_TABLES
        assert (scan.holds, scan.witness) == (table.holds, table.witness), (expr, n)


def test_is_n_uu_above_the_memo_budget():
    # MATRIX-LCM's closed form: uu_exponent(M(3,GF(3))) = lcm(2, 8, 26) = 104, and
    # M(2,Z(16)) has the exponent of M(2,GF(2)) = M(2,Z(16))/J, lcm(1, 3) = 3
    m3z3 = make_matrix(make_zmod(3), 3)
    assert not m3z3.table_capable
    verdicts = {n: is_n_uu(m3z3, n) for n in (1, 2, 3, 4, 6, 24, 104)}
    assert {n: v.witness for n, v in verdicts.items()} == {
        1: [("u", 819)], 2: [("u", 820)], 3: [("u", 819)], 4: [("u", 820)],
        6: [("u", 820)], 24: [("u", 849)], 104: None,
    }
    assert verdicts[104].holds and lcm_criterion(3, 3) == 104
    assert {v.note for v in verdicts.values()} == {NO_TABLES}
    m2z16 = make_matrix(make_zmod(16), 2)
    assert m2z16.size == DEFAULT_MAX_RING_SIZE
    assert [n for n in range(1, 25) if is_n_uu(m2z16, n).holds] == list(range(3, 25, 3))
    assert lcm_criterion(2, 2) == 3


def test_is_n_uu_on_a_prime_field_above_the_memo_budget():
    # Z(65521)* is cyclic of order 65520: every unit's 65520-th power is 1, and
    # u**32760 = 1 exactly for the quadratic residues (Euler's criterion), so
    # the witness at n = 32760 is the least non-residue
    p = 65521
    z = make_zmod(p)
    assert not z.table_capable
    assert is_n_uu(z, p - 1).holds
    least_non_residue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    verdict = is_n_uu(z, (p - 1) // 2)
    assert (verdict.holds, verdict.witness, verdict.note) == (False, [("u", least_non_residue)], NO_TABLES)


def test_is_n_uu_witness_recheck(m2z3):
    verdict = is_n_uu(m2z3, 6)
    assert not verdict.holds
    (role, u), = verdict.witness
    assert role == "u"
    assert u in unit_codes(m2z3)
    defect = m2z3.sub(m2z3.pow_code(u, 6), m2z3.one)
    assert defect not in set(nilpotent_codes(m2z3))


def test_is_uu(z4, z5, z2c2):
    assert is_uu(z4).holds
    verdict = is_uu(z5)
    assert not verdict.holds and verdict.witness == [("u", 2)]
    assert is_uu(z2c2).holds


def test_is_pi_uu(m2z3):
    z7 = make_zmod(7)
    verdict = is_pi_uu(z7)
    assert verdict.holds
    assert all(6 % d == 0 for d in verdict.exponents.values())
    assert is_pi_uu(m2z3).holds
    oracle = is_pi_uu(integers_oracle())
    assert oracle.holds and oracle.exponents["-1"] == 2


def test_is_periodic_element(z4, z5):
    assert is_periodic_element(z4.elem(2)).exponents == {"i": 3, "j": 2}
    assert is_periodic_element(z4.elem(1)).exponents == {"i": 2, "j": 1}
    assert is_periodic_element(z5.elem(2)).exponents == {"i": 5, "j": 1}


def test_periodic_witness_recheck(t2z2):
    for a in range(t2z2.size):
        exps = is_periodic_element(t2z2.elem(a)).exponents
        i, j = exps["i"], exps["j"]
        assert i > j >= 1
        assert t2z2.pow_code(a, i) == t2z2.pow_code(a, j)


# -- nil-clean decompositions -----------------------------------------------------


def test_is_strongly_n_nil_clean(z5, m2z2):
    z3 = make_zmod(3)
    assert is_strongly_n_nil_clean(z3, 3).holds
    assert is_strongly_n_nil_clean(m2z2, 4).holds
    verdict = is_strongly_n_nil_clean(z5, 2)
    assert not verdict.holds and verdict.witness == [("a", 2)]


def test_strongly_n_nil_clean_decompose(z4, z5):
    verdict = strongly_n_nil_clean_decompose(z4.elem(2), 2)
    assert verdict.witness == [("f", 0), ("q", 2)]
    verdict = strongly_n_nil_clean_decompose(z4.elem(3), 2)
    assert verdict.witness == [("f", 1), ("q", 2)]
    assert not strongly_n_nil_clean_decompose(z5.elem(2), 2).holds


def test_decomposition_witnesses_recheck(m2z2):
    nils = set(nilpotent_codes(m2z2))
    for a in range(m2z2.size):
        verdict = strongly_n_nil_clean_decompose(m2z2.elem(a), 4)
        assert verdict.holds
        (_, f), (_, q) = verdict.witness
        assert m2z2.pow_code(f, 4) == f
        assert q in nils
        assert m2z2.add(f, q) == a
        assert m2z2.mul(f, q) == m2z2.mul(q, f)


def test_strongly_m_nil_clean_element(z5):
    z3 = make_zmod(3)
    assert is_strongly_m_nil_clean_element(z3.elem(2), 3).witness == [("f", 2), ("q", 0)]
    assert is_strongly_m_nil_clean_element(z3.elem(1), 5).witness == [("f", 1), ("q", 0)]
    assert not is_strongly_m_nil_clean_element(z5.elem(2), 3).holds


def test_is_nil_clean(z4, m2z2):
    assert is_nil_clean(z4).holds
    z3 = make_zmod(3)
    verdict = is_nil_clean(z3)
    assert not verdict.holds and verdict.witness == [("a", 2)]
    assert is_nil_clean(m2z2).holds


def _nil_clean_decompose_by_tables(a):
    """(holds, witness) of nil_clean_decompose, read off the tables."""
    R = a.ring
    c = cache(R)
    tabs = R.tables()
    E = c.idempotents
    q = tabs.add[a.code, tabs.neg[E]]
    hits = np.flatnonzero(c.nil_mask[q])
    if hits.size == 0:
        return False, None
    k = int(hits[0])
    return True, [("e", int(E[k])), ("q", int(q[k]))]


def _strongly_n_nil_clean_decompose_by_tables(a, n):
    """(holds, witness) of strongly_n_nil_clean_decompose, read off the tables."""
    R = a.ring
    c = cache(R)
    tabs = R.tables()
    F = c.n_potents(n)
    b = tabs.add[a.code, tabs.neg[F]]
    # f commutes with q = a - f exactly when f commutes with a
    ok = c.nil_mask[b] & (tabs.mul[a.code, F] == tabs.mul[F, a.code])
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return False, None
    return True, [("f", int(F[int(hits[0])])), ("q", int(b[int(hits[0])]))]


def _pi_regular_decompose_by_tables(a):
    """(holds, witness) of pi_regular_decompose, read off the tables; raises
    AxiomViolation, with the library's message, when a does not decompose."""
    R = a.ring
    c = cache(R)
    tabs = R.tables()
    pe, pu, eu = _eu_pairs(R)
    w = tabs.add[a.code, tabs.neg[eu]]
    idx = np.flatnonzero(c.nil_mask[w])
    if idx.size:
        ew, ee, uu_ = w[idx], pe[idx], pu[idx]
        fine = (tabs.mul[ee, ew] == tabs.mul[ew, ee]) & (tabs.mul[uu_, ew] == tabs.mul[ew, uu_])
        hits = np.flatnonzero(fine)
        if hits.size:
            k = int(idx[int(hits[0])])
            return True, [("e", int(pe[k])), ("u", int(pu[k])), ("w", int(w[k]))]
    raise AxiomViolation(f"no strongly pi-regular decomposition for code {a.code} in finite ring {R.label}")


def _augmentation_by_loop(x):
    """Coefficient sum of a group-ring element, one scalar addition at a time."""
    base = x.ring.meta["base"]
    total = base.zero
    for c in decode_digits(x.ring, x.code):
        total = base.add(total, c)
    return total


def _found(verdict):
    return verdict.holds, verdict.witness


def test_decompositions_match_the_table_references():
    # every code of every corpus ring, witnesses included
    for R in build_corpus():
        if isinstance(R, str):
            continue
        for a in range(R.size):
            x = R.elem(a)
            assert _found(nil_clean_decompose(x)) == _nil_clean_decompose_by_tables(x), (R.label, a)
            for n in (2, 3, 4):
                expected = _strongly_n_nil_clean_decompose_by_tables(x, n)
                assert _found(strongly_n_nil_clean_decompose(x, n)) == expected, (R.label, a, n)
            assert _found(pi_regular_decompose(x)) == _pi_regular_decompose_by_tables(x), (R.label, a)
        if R.kind == "groupring":
            sums = [_augmentation_by_loop(R.elem(a)) for a in range(R.size)]
            assert [augmentation(R.elem(a)).code for a in range(R.size)] == sums, R.label
            kernel = [a for a, total in enumerate(sums) if total == R.meta["base"].zero]
            assert augmentation_ideal(R).members().tolist() == kernel, R.label


def test_nil_clean_decompose(z4, z5):
    verdict = nil_clean_decompose(z4.elem(3))
    assert verdict.holds and verdict.witness == [("e", 1), ("q", 2)]
    assert not nil_clean_decompose(z5.elem(2)).holds


def test_pi_regular_decompose(z4, z6):
    assert pi_regular_decompose(z4.elem(0)).witness == [("e", 0), ("u", 1), ("w", 0)]
    assert pi_regular_decompose(z4.elem(2)).witness == [("e", 0), ("u", 1), ("w", 2)]
    assert pi_regular_decompose(z6.elem(2)).witness == [("e", 4), ("u", 5), ("w", 0)]


def test_pi_regular_always_succeeds_and_rechecks(t2z2, m2z2):
    for ring in (t2z2, m2z2):
        nils = set(nilpotent_codes(ring))
        unit_set = set(unit_codes(ring))
        for a in range(ring.size):
            (_, e), (_, u), (_, w) = pi_regular_decompose(ring.elem(a)).witness
            assert ring.mul(e, e) == e
            assert u in unit_set
            assert w in nils
            assert ring.add(ring.mul(e, u), w) == a
            assert ring.mul(e, u) == ring.mul(u, e)
            assert ring.mul(e, w) == ring.mul(w, e)
            assert ring.mul(u, w) == ring.mul(w, u)


# -- the six-way equivalence -----------------------------------------------------


def test_thm1_condition_examples(z5, m2z2):
    z3 = make_zmod(3)
    assert thm1_condition(z3, 3, 4).holds
    assert thm1_condition(m2z2, 4, 6).holds
    verdict = thm1_condition(z5, 3, 1)
    assert not verdict.holds


def test_thm1_conditions_agree_on_small_rings(z4, z6, m2z2):
    for ring in (z4, z6, m2z2, make_zmod(3)):
        for n in range(2, 8):
            flags = [thm1_condition(ring, n, w).holds for w in range(1, 7)]
            assert len(set(flags)) == 1, (ring.label, n, flags)


def _strongly_pi_regular_by_elements(R):
    """One table-read decomposition per element; raises AxiomViolation on the first failure."""
    for a in range(R.size):
        _pi_regular_decompose_by_tables(R.elem(a))


def _thm1_by_elements(R, n, which):
    """(holds, witness) of thm1_condition, one element at a time."""
    c = cache(R)
    tabs = R.tables()
    nil = c.nil_mask
    E = c.idempotents

    def first_failure(splits):
        for a in range(R.size):
            if not splits(a):
                return False, [("a", a)]
        return True, None

    if which == 1:
        F = c.n_potents(n)
        return first_failure(
            lambda a: (nil[tabs.add[a, tabs.neg[F]]] & (tabs.mul[a, F] == tabs.mul[F, a])).any()
        )
    if which in (2, 3):
        V = _unit_n_potents(R, n)
        pe = np.repeat(E, V.size)
        pv = np.tile(V, E.size)
        ev = tabs.mul[pe, pv]
        ve = tabs.mul[pv, pe]
        ev = ev[ev == ve] if which == 2 else ev[ve == tabs.mul[pe, ve]]

        def splits(a):
            b = tabs.add[a, tabs.neg[ev]]
            bs = b[nil[b]]
            return (tabs.mul[a, bs] == tabs.mul[bs, a]).any()

        return first_failure(splits)
    if which == 4:
        return first_failure(lambda a: nil[R.sub(a, R.pow_code(a, n))])
    if which == 5:
        powers = c.pow_all(n - 1)
        return first_failure(
            lambda a: (
                nil[tabs.add[powers[a], tabs.neg[E]]]
                & (tabs.mul[powers[a], E] == tabs.mul[E, powers[a]])
            ).any()
        )
    return _n_uu_by_unit_powers(R, n - 1)


def _nil_clean_by_elements(R):
    """(holds, witness) of is_nil_clean, one element at a time."""
    tabs = R.tables()
    E = cache(R).idempotents
    for a in range(R.size):
        if not cache(R).nil_mask[tabs.add[a, tabs.neg[E]]].any():
            return False, [("a", a)]
    return True, None


def _assert_blocked_passes_match_element_checks(rings):
    for R in rings:
        _strongly_pi_regular_by_elements(R)  # condition 6's first half, once per ring
        verdict = is_nil_clean(R)
        assert (verdict.holds, verdict.witness) == _nil_clean_by_elements(R), R.label
        for n in range(2, 25):
            for which in range(1, 7):
                verdict = thm1_condition(R, n, which)
                expected = _thm1_by_elements(R, n, which)
                assert (verdict.holds, verdict.witness) == expected, (R.label, n, which)


def test_thm1_conditions_match_the_element_by_element_checks():
    # the blocked array passes against per-element checks: same verdict and
    # least failing element, for every condition
    _assert_blocked_passes_match_element_checks(R for R in build_corpus() if not isinstance(R, str))


def test_blocked_passes_agree_across_row_blocks(monkeypatch):
    # 97 entries per block: the rows of every ring below span many blocks
    monkeypatch.setattr(predicates, "BLOCK_ENTRIES", 97)
    rings = [
        make_zmod(12),
        make_matrix(make_zmod(2), 2),
        make_matrix(make_zmod(3), 2),
        make_triangular(make_zmod(4), 2),
        rl.make_groupring(make_zmod(2), cyclic(4)),
    ]
    _assert_blocked_passes_match_element_checks(rings)


def test_nil_clean_passes_without_tables_match_the_table_route():
    # not even Z(2)'s tables fit a 16-byte budget, so every pass below runs on the
    # rings' kernels, and a predicate that read R.tables() would raise SizeExceeded
    tableless = [R for R in build_corpus(rl.ResourceGuard(mul_memo_budget_bytes=16)) if not isinstance(R, str)]
    tabled = [R for R in build_corpus() if not isinstance(R, str)]
    assert [R.label for R in tableless] == [R.label for R in tabled]
    for K, T in zip(tableless, tabled):
        assert not K.table_capable and T.table_capable
        assert _found(is_nil_clean(K)) == _found(is_nil_clean(T)), K.label
        for n in (2, 3, 5):
            for which in (1, 4, 5):
                assert _found(thm1_condition(K, n, which)) == _found(thm1_condition(T, n, which)), (K.label, n, which)
        for a in range(K.size):
            assert _found(nil_clean_decompose(K.elem(a))) == _found(nil_clean_decompose(T.elem(a))), (K.label, a)
            for n in (2, 3):
                expected = _found(strongly_n_nil_clean_decompose(T.elem(a), n))
                assert _found(strongly_n_nil_clean_decompose(K.elem(a), n)) == expected, (K.label, a, n)
        assert K._tables is None


@pytest.mark.parametrize(
    "ring, cut, code",
    [
        # only e = 0: an element decomposes exactly when it is nilpotent
        (lambda: make_zmod(4), lambda pe, pu, one: pe == 0, 1),
        # e in {0, 1}: the unit must commute with the nilpotent part
        (lambda: make_matrix(make_zmod(2), 2), lambda pe, pu, one: (pe == 0) | (pe == one), 1),
        # u = 1: the idempotent must commute with the nilpotent part
        (lambda: make_matrix(make_zmod(2), 2), lambda pe, pu, one: pu == one, 7),
    ],
)
def test_strongly_pi_regular_names_the_least_undecomposable_code(ring, cut, code):
    R = ring()
    c = cache(R)
    pe, pu, eu = _eu_pairs(R)
    keep = cut(pe, pu, R.one)
    c._d["eu_pairs"] = (pe[keep], pu[keep], eu[keep])
    with pytest.raises(AxiomViolation) as raised:
        strongly_pi_regular(R)
    with pytest.raises(AxiomViolation) as by_elements:
        _strongly_pi_regular_by_elements(R)
    assert str(raised.value) == str(by_elements.value)
    assert f"code {code} " in str(raised.value)
    assert "pi_regular" not in c._d
    c._d["eu_pairs"] = (pe, pu, eu)
    assert strongly_pi_regular(R).holds
    assert c._d["pi_regular"] is True


def test_thm1_condition_validates_input(z4):
    with pytest.raises(ValueError):
        thm1_condition(z4, 1, 4)
    with pytest.raises(ValueError):
        thm1_condition(z4, 3, 7)


# -- numeric criteria ---------------------------------------------------------------


def test_lcm_criterion():
    assert lcm_criterion(2, 2) == 3
    assert lcm_criterion(3, 2) == 8
    for q in (2, 3, 4, 5, 9):
        assert lcm_criterion(q, 1) == q - 1
    assert lcm_criterion(2, 3) == math.lcm(1, 3, 7)


def test_unipotent_order_check(z4, z12, t2z2):
    verdict = unipotent_order_check(z4.elem(2))
    assert verdict.holds and verdict.exponents == {"m": 4, "s": 1, "exponent": 4}
    strict_upper = 2  # digits (0,1,0) in T_2(Z_2)
    verdict = unipotent_order_check(t2z2.elem(strict_upper))
    assert verdict.holds and verdict.exponents["exponent"] == 2
    verdict = unipotent_order_check(z12.elem(6))
    assert verdict.holds and verdict.exponents == {"m": 12, "s": 1, "exponent": 12}
    assert pow(-5, 12, 12) == 1  # the modular identity the check encodes


def test_unipotent_order_check_rejects_non_nilpotents(z12):
    with pytest.raises(ValueError):
        unipotent_order_check(z12.elem(5))


def test_unipotent_order_check_overflow_guard(monkeypatch):
    # force the reduction path: exponent 16^3 = 4096 over a tiny threshold
    import ringlab.predicates as pred_mod

    monkeypatch.setattr(pred_mod, "MAX_POW_EXPONENT", 10)
    z16 = make_zmod(16)
    verdict = unipotent_order_check(z16.elem(2))
    assert verdict.holds
    assert verdict.note is not None  # flagged as reduced
    assert verdict.exponents["exponent"] < 4096


# -- group-ring operations -------------------------------------------------------------


def test_augmentation_map(z2c2):
    one_plus_g = 3
    assert augmentation(z2c2.elem(one_plus_g)).code == 0
    g_alone = 2
    assert augmentation(z2c2.elem(g_alone)).code == 1


def test_augmentation_ideal(z2c2):
    ideal = augmentation_ideal(z2c2)
    assert len(ideal) == 2
    assert ideal.is_nil()


def test_augmentation_ideal_of_non_p_group_is_not_nil():
    rg = rl.make_groupring(make_zmod(3), cyclic(2))
    ideal = augmentation_ideal(rg)
    assert len(ideal) == 3
    assert not ideal.is_nil()


def test_augmentation_rejects_other_kinds(z4):
    with pytest.raises(WrongRingKind):
        augmentation(z4.elem(1))
    with pytest.raises(WrongRingKind):
        augmentation_ideal(z4)


# -- witness determinism ----------------------------------------------------------------


def test_witnesses_are_deterministic(m2z3):
    first = is_n_uu(m2z3, 6)
    second = is_n_uu(m2z3, 6)
    assert first.witness == second.witness
    d1 = strongly_n_nil_clean_decompose(m2z3.elem(5), 2)
    d2 = strongly_n_nil_clean_decompose(m2z3.elem(5), 2)
    assert d1.witness == d2.witness
