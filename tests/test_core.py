"""Ring contract: element arithmetic, powering, characteristic, axiom checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringlab as rl
from ringlab import core, dsl, make_gf, make_ks, make_matrix, make_product, make_triangular, make_zmod
from ringlab.corpus import build_corpus
from ringlab.errors import AxiomViolation, CrossRingError, SizeExceeded

# a memo budget no ring meets: every ring built under it is checked in sampled mode
_NO_TABLES = rl.ResourceGuard(mul_memo_budget_bytes=16)


def test_pow_matches_modular_arithmetic(z12):
    assert z12.pow_code(3, 2) == (3 * 3) % 12
    assert z12.pow_code(5, 2) == (5 * 5) % 12  # == 1
    assert z12.pow_code(5, 2) == 1


def test_pow_zero_is_one(z12, m2z2):
    for ring in (z12, m2z2):
        for a in range(ring.size):
            assert ring.pow_code(a, 0) == ring.one


def test_pow_negative_exponent_rejected(z12):
    with pytest.raises(ValueError):
        z12.pow_code(3, -1)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(0, 11), j=st.integers(0, 64), k=st.integers(0, 64))
def test_pow_is_additive_in_the_exponent(a, j, k):
    ring = make_zmod(12)
    left = ring.pow_code(a, j + k)
    right = ring.mul(ring.pow_code(a, j), ring.pow_code(a, k))
    assert left == right


def test_characteristic_values(z12, m2z2):
    assert rl.characteristic(z12) == 12
    assert rl.characteristic(m2z2) == 2


def test_characteristic_of_product_by_repeated_addition():
    ring = make_product([make_zmod(2), make_zmod(3)])
    # independent oracle: add one to itself until it wraps
    x = ring.one
    count = 1
    while x != ring.zero:
        x = ring.add(x, ring.one)
        count += 1
    assert count == 6
    assert rl.characteristic(ring) == count


def test_characteristic_times_one_is_zero():
    for ring in (make_zmod(9), make_gf(8), make_matrix(make_zmod(2), 2)):
        k = rl.characteristic(ring)
        x = ring.zero
        for _ in range(k):
            x = ring.add(x, ring.one)
        assert x == ring.zero


def test_every_additive_order_divides_the_characteristic():
    for ring in (make_zmod(12), make_product([make_zmod(4), make_zmod(6)])):
        char = rl.characteristic(ring)
        for a in range(ring.size):
            x, order = ring.zero, 0
            while True:
                x = ring.add(x, a)
                order += 1
                if x == ring.zero:
                    break
            assert char % order == 0


def test_elem_arithmetic_and_cross_ring_rejection(z12, z4):
    a = z12.elem(7)
    b = z12.elem(8)
    assert (a + b).code == 3
    assert (a * b).code == (7 * 8) % 12
    assert (-a).code == 5
    assert (a ** 2).code == 1
    with pytest.raises(CrossRingError):
        a + z4.elem(1)


def test_elem_code_range_checked(z4):
    with pytest.raises(ValueError):
        z4.elem(4)


def test_power_function(z5):
    assert rl.power(z5.elem(2), 4).code == 1
    assert rl.pow(z5.elem(2), 3).code == 3


def test_axioms_hold_for_valid_rings():
    assert rl.verify_ring_axioms(make_zmod(8)).holds
    verdict = rl.verify_ring_axioms(make_ks(make_zmod(4), 2))
    assert verdict.holds
    assert verdict.mode == "exhaustive"  # full triple loop at size 256


def _broken_identity(guard=None):
    # corrupt only mul(1,1); the identity axiom should name the cell
    base = make_zmod(6)
    return rl.FiniteRing(
        6, base.add, lambda i, j: 0 if (i, j) == (1, 1) else (i * j) % 6, base.neg, one=1, label="broken", guard=guard
    )


def _broken_associativity(guard=None):
    base = make_zmod(5)
    return rl.FiniteRing(
        5,
        base.add,
        lambda i, j: (i * j + (1 if (i, j) == (2, 3) else 0)) % 5,
        base.neg,
        one=1,
        label="broken-assoc",
        guard=guard,
    )


def test_axioms_catch_broken_identity():
    verdict = rl.verify_ring_axioms(_broken_identity())
    assert not verdict.holds
    assert verdict.witness == [("a", 1), ("b", 1)]
    assert "identity" in verdict.note


def test_axioms_catch_broken_associativity():
    verdict = rl.verify_ring_axioms(_broken_associativity())
    assert not verdict.holds
    assert verdict.witness == [("a", 2), ("b", 2), ("c", 3)]
    assert verdict.note == "multiplication is not associative"


def _near_ring_z3(opposite, guard=None):
    # zero-symmetric maps f of Z(3), code f(1) + 3 f(2), with pointwise +
    # and composition: right distributive, not left; opposite=True swaps sides
    def ev(f, x):
        return 0 if x == 0 else (f % 3 if x == 1 else f // 3)

    def code(g):
        return g(1) % 3 + 3 * (g(2) % 3)

    def compose(f, g):
        return code(lambda x: ev(f, ev(g, x)))

    return rl.FiniteRing(
        9,
        lambda f, g: code(lambda x: ev(f, x) + ev(g, x)),
        (lambda f, g: compose(g, f)) if opposite else compose,
        lambda f: code(lambda x: -ev(f, x)),
        one=7,
        label="near-ring",
        guard=guard,
    )


def _non_associative_gf2_algebra(guard=None):
    # GF(2)-algebra on 1, x, y (code c0 + 2 c1 + 4 c2) with xy = x and every
    # other product of x and y zero: bilinear, unital, (xy)y = x but x(yy) = 0
    def mul(i, j):
        a0, a1, a2 = i & 1, i >> 1 & 1, i >> 2 & 1
        b0, b1, b2 = j & 1, j >> 1 & 1, j >> 2 & 1
        c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b2)
        c2 = (a0 & b2) ^ (a2 & b0)
        return (a0 & b0) | c1 << 1 | c2 << 2

    return rl.FiniteRing(8, lambda i, j: i ^ j, mul, lambda i: i, one=1, label="non-associative", guard=guard)


def _non_associative_addition(guard=None):
    base = make_zmod(5)
    return rl.FiniteRing(
        5,
        lambda i, j: 4 if {i, j} == {1, 2} else (i + j) % 5,
        base.mul,
        base.neg,
        one=1,
        label="broken-add",
        guard=guard,
    )


def _addition_without_generators(guard=None):
    # x + y = 0 for all nonzero x, y: commutative, with identity and inverses,
    # but from 0 each new code reaches only itself, so no log2 N generators exist
    return rl.FiniteRing(
        8,
        lambda i, j: i if j == 0 else (j if i == 0 else 0),
        lambda i, j: j if i == 1 else (i if j == 1 else 0),
        lambda i: i,
        one=1,
        label="no-generators",
        guard=guard,
    )


@pytest.mark.parametrize(
    "build, witness, note",
    [
        (_non_associative_addition, [("a", 1), ("b", 1), ("c", 2)], "addition is not associative"),
        (_addition_without_generators, [("a", 1), ("b", 1), ("c", 2)], "addition is not associative"),
        (_non_associative_gf2_algebra, [("a", 2), ("b", 4), ("c", 4)], "multiplication is not associative"),
        (lambda: _near_ring_z3(False), [("a", 1), ("b", 1), ("c", 1)], "left distributivity fails"),
        (lambda: _near_ring_z3(True), [("a", 1), ("b", 1), ("c", 1)], "right distributivity fails"),
    ],
    ids=["add-assoc", "add-no-generators", "mul-assoc", "left-distrib", "right-distrib"],
)
def test_axioms_name_the_first_broken_ternary_law(build, witness, note):
    verdict = rl.verify_ring_axioms(build())
    assert not verdict.holds
    assert verdict.mode == "exhaustive"
    assert verdict.witness == witness
    assert verdict.note == note


@pytest.mark.parametrize("neg_zero", [-5, 5])
def test_axioms_reject_negation_out_of_code_range(neg_zero):
    base = make_zmod(5)
    broken = rl.FiniteRing(
        5,
        base.add,
        base.mul,
        lambda i: neg_zero if i == 0 else base.neg(i),
        one=1,
        label="broken-neg",
    )
    verdict = rl.verify_ring_axioms(broken)
    assert not verdict.holds
    assert verdict.note == "operation result out of code range"


def _z5_broken_at(op, cell, shift, guard):
    # Z(5) with the result of op on the codes cell shifted by shift
    base = make_zmod(5, guard)

    def broken(name, f):
        return lambda *codes: f(*codes) + (shift if (name, codes) == (op, cell) else 0)

    return rl.FiniteRing(
        5, broken("add", base.add), broken("mul", base.mul), broken("neg", base.neg), one=1, label="broken-z5",
        guard=guard,
    )


# neg(0), or 2 + 2 or 2 * 2, is off by the modulus: every law still holds
# modulo 5, so only the range check can tell
RANGE_BREAKS = [("neg", -5), ("neg", 5), ("add", 5), ("mul", 5)]


def _broken_range(op, offset, guard):
    return _z5_broken_at(op, (0,) if op == "neg" else (2, 2), offset, guard)


@pytest.mark.parametrize("op, offset", RANGE_BREAKS)
def test_sampled_axioms_reject_results_out_of_code_range(op, offset):
    verdict = rl.verify_ring_axioms(_broken_range(op, offset, _NO_TABLES), seed=3, sample_triples=5000)
    assert not verdict.holds
    assert verdict.mode == "sampled"
    assert verdict.note == "operation result out of code range"


def _routes_agree(tables, zero):
    # the generator route proves the ternary laws exactly when the scan finds no violation
    proved = core._ternary_by_generators(tables.add, tables.mul, zero)
    found = core._ternary_scan(tables.add, tables.mul)
    return (proved is True) == (found is None)


def test_generator_route_defers_to_the_scan_without_generators():
    tables = _addition_without_generators().tables()
    assert core._additive_generators(tables.add, 0) is None
    assert core._ternary_by_generators(tables.add, tables.mul, 0) is None


def test_generator_failure_without_a_scan_violation_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(core, "_ternary_by_generators", lambda *args: False)
    with pytest.raises(RuntimeError, match="internal error"):
        rl.verify_ring_axioms(make_zmod(4))


def test_ternary_routes_agree_on_the_corpus():
    for ring in build_corpus():
        if isinstance(ring, str):
            continue
        tables = ring.tables()
        assert core._table_violation(tables, ring.zero, ring.one) is None, ring.label
        assert _routes_agree(tables, ring.zero), ring.label


def test_ternary_routes_agree_on_single_cell_corruptions():
    rings = [
        make_zmod(4),
        make_zmod(6),
        make_gf(4),
        make_matrix(make_zmod(2), 2),
        make_triangular(make_zmod(2), 2),
    ]
    reached = broken = 0
    for ring in rings:
        tables = ring.tables()
        n = ring.size
        for field in ("add", "mul"):
            for i in range(n):
                for j in range(n):
                    for value in range(n):
                        if value == getattr(tables, field)[i, j]:
                            continue
                        table = getattr(tables, field).copy()
                        table[i, j] = value
                        corrupted = tables._replace(**{field: table})
                        if core._table_violation(corrupted, ring.zero, ring.one) is not None:
                            continue
                        reached += 1
                        broken += core._ternary_scan(corrupted.add, corrupted.mul) is not None
                        assert _routes_agree(corrupted, ring.zero), (ring.label, field, i, j, value)
    # every corruption that reaches the ternary stage is a genuine test of both routes
    assert reached > 1000
    assert broken == reached


@pytest.mark.slow
def test_axioms_hold_exhaustively_at_the_memo_boundary():
    ring = dsl.elaborate(dsl.parse_ring_expr("M(2,Z(8))"))
    assert ring.size == core.AXIOM_EXHAUSTIVE_LIMIT
    verdict = rl.verify_ring_axioms(ring)
    assert verdict.holds
    assert verdict.mode == "exhaustive"


def test_guard_rejects_oversized_ring():
    guard = rl.ResourceGuard(max_ring_size=100)
    with pytest.raises(SizeExceeded):
        make_zmod(101, guard)
    assert make_zmod(100, guard).size == 100


def test_trivial_ring_rejected():
    with pytest.raises(AxiomViolation):
        rl.FiniteRing(1, lambda i, j: 0, lambda i, j: 0, lambda i: 0, one=0)


def test_ring_needs_a_kernel_or_all_scalar_functions():
    with pytest.raises(TypeError):
        rl.FiniteRing(2, one=1)
    with pytest.raises(TypeError):
        rl.FiniteRing(2, lambda i, j: i ^ j, lambda i, j: i & j, one=1)


def test_scalar_ops_and_sampled_axioms_build_no_tables():
    R = dsl.elaborate(dsl.parse_ring_expr("M(2,Z(8))"))
    assert rl.characteristic(R) == 8
    assert R._tables is None
    # table-capable, but above the exhaustive limit: the default sample runs on the kernel
    Z = make_zmod(5000)
    assert Z.table_capable and Z.size > core.AXIOM_EXHAUSTIVE_LIMIT
    verdict = rl.verify_ring_axioms(Z)
    assert verdict.holds
    assert verdict.mode == "sampled"
    assert Z._tables is None


def test_memo_budget_controls_tables():
    guard = rl.ResourceGuard(mul_memo_budget_bytes=8 * 8 * 4 * 2)
    small = make_zmod(8, guard)
    assert small.try_tables() is not None
    big = make_zmod(9, guard)
    assert big.try_tables() is None
    with pytest.raises(SizeExceeded):
        big.tables()
    # scalar arithmetic still works without tables
    assert big.mul(4, 5) == 2


def test_sampled_axiom_mode_for_untabled_ring():
    ring = make_zmod(11, _NO_TABLES)
    verdict = rl.verify_ring_axioms(ring, seed=7, sample_triples=2000)
    assert verdict.holds
    assert verdict.mode == "sampled"


def _broken_sampled(guard):
    base = make_zmod(13, guard)
    return rl.FiniteRing(
        13,
        base.add,
        lambda i, j: (i * j + (1 if (i, j) == (5, 7) else 0)) % 13,
        base.neg,
        one=1,
        label="broken-sampled",
        guard=guard,
    )


def test_sampled_mode_is_seed_deterministic():
    broken = _broken_sampled(_NO_TABLES)
    first = rl.verify_ring_axioms(broken, seed=3, sample_triples=5000)
    second = rl.verify_ring_axioms(broken, seed=3, sample_triples=5000)
    assert not first.holds and not second.holds
    assert first.witness == second.witness


def _sampled_axioms_by_triples(R, seed, sample_triples):
    """Reference for sampled mode, one element and then one drawn triple at a
    time through the scalar operations: (holds, witness, note, mode)."""
    n = R.size
    add, mul, neg = R.add, R.mul, R.neg
    codes = frozenset(range(n))
    out_of_range = (False, None, "operation result out of code range", "sampled")
    for x in range(n):
        if add(R.zero, x) != x:
            return False, [("x", x)], "zero is not an additive identity", "sampled"
        if neg(x) not in codes:
            return out_of_range
        if add(x, neg(x)) != R.zero:
            return False, [("x", x)], "neg is not an additive inverse", "sampled"
        if mul(R.one, x) != x:
            return False, [("a", R.one), ("b", x)], "one is not a left identity", "sampled"
        if mul(x, R.one) != x:
            return False, [("a", x), ("b", R.one)], "one is not a right identity", "sampled"
    laws = (
        "addition is not associative",
        "multiplication is not associative",
        "left distributivity fails",
        "right distributivity fails",
    )
    triples = np.random.default_rng(seed).integers(0, n, size=(sample_triples, 3))
    for a, b, c in triples.tolist():
        ab, ba, bc = add(a, b), add(b, a), add(b, c)
        pab, pbc, pac = mul(a, b), mul(b, c), mul(a, c)
        if not codes.issuperset((ab, ba, bc, pab, pbc, pac)):
            return out_of_range
        if ab != ba:
            return False, [("a", a), ("b", b)], "addition is not commutative", "sampled"
        sides = (
            add(ab, c), add(a, bc),  # (a+b)+c, a+(b+c)
            mul(pab, c), mul(a, pbc),  # (ab)c, a(bc)
            mul(a, bc), add(pab, pac),  # a(b+c), ab+ac
            mul(ab, c), add(pac, pbc),  # (a+b)c, ac+bc
        )
        if not codes.issuperset(sides):
            return out_of_range
        for law, note in enumerate(laws):
            if sides[2 * law] != sides[2 * law + 1]:
                return False, [("a", a), ("b", b), ("c", c)], note, "sampled"
    return True, None, None, "sampled"


# drawn triples per differential case: the reference runs them through the scalar operations
_DIFFERENTIAL_TRIPLES = 300
# the first triple drawn with this seed on 7 codes
_SIDES_SEED = 1
_SIDES_TRIPLE = np.random.default_rng(_SIDES_SEED).integers(0, 7, size=(1, 3))[0].tolist()


def _sides_out_of_range(guard):
    # Z(7) with (a+b)*c off by the modulus for _SIDES_TRIPLE
    a, b, c = _SIDES_TRIPLE
    cell = ((a + b) % 7, c)
    base = make_zmod(7)
    return rl.FiniteRing(
        7, base.add, lambda i, j: base.mul(i, j) + (7 if (i, j) == cell else 0), base.neg, one=1, guard=guard
    )


def _z5_by_lookup(guard):
    # Z(5) read from lists, with 2 + 2 = 9: an out-of-range operand would raise IndexError
    add = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    add[2][2] = 9
    return rl.FiniteRing(5, lambda i, j: add[i][j], lambda i, j: i * j % 5, lambda i: -i % 5, one=1, guard=guard)


def _elaborated(expr):
    return lambda guard: dsl.elaborate(dsl.parse_ring_expr(expr), guard)


SAMPLED_RINGS = {
    "broken-identity": _broken_identity,
    "broken-assoc": _broken_associativity,
    "near-ring": lambda guard: _near_ring_z3(False, guard),
    "near-ring-opposite": lambda guard: _near_ring_z3(True, guard),
    "non-associative": _non_associative_gf2_algebra,
    "broken-add": _non_associative_addition,
    "no-generators": _addition_without_generators,
    **{f"broken-range-{op}{offset}": (lambda guard, op=op, offset=offset: _broken_range(op, offset, guard))
       for op, offset in RANGE_BREAKS},
    # off by one, in range: the zero, inverse, right identity and commutativity checks
    **{f"off-by-one-{op}" + "".join(map(str, cell)): (lambda guard, op=op, cell=cell: _z5_broken_at(op, cell, 1, guard))
       for op, cell in (("add", (0, 3)), ("neg", (2,)), ("mul", (3, 1)), ("add", (1, 2)))},
    "broken-sampled": _broken_sampled,
    "sides-out-of-range": _sides_out_of_range,
    "lookup-out-of-range": _z5_by_lookup,
    **{expr: _elaborated(expr)
       for expr in ("Z(11)", "T(2,Z(3))", "GR(Z(2),C(3))", "Corner(M(2,Z(2)),#1)", "Quot(Z(12),#4)")},
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", SAMPLED_RINGS)
def test_sampled_axioms_match_the_triple_loop(name, seed, monkeypatch):
    R = SAMPLED_RINGS[name](_NO_TABLES)
    assert not R.table_capable
    expected = _sampled_axioms_by_triples(R, seed, _DIFFERENTIAL_TRIPLES)
    # the default chunk holds every triple; 16 * 5 entries make chunks of 5
    for block in (core.BLOCK_ENTRIES, 16 * 5):
        monkeypatch.setattr(core, "BLOCK_ENTRIES", block)
        verdict = rl.verify_ring_axioms(R, seed=seed, sample_triples=_DIFFERENTIAL_TRIPLES)
        assert (verdict.holds, verdict.witness, verdict.note, verdict.mode) == expected, (name, block)


def test_sampled_axioms_range_check_the_eight_sides():
    R = _sides_out_of_range(_NO_TABLES)
    a, b, c = _SIDES_TRIPLE
    cell = ((a + b) % 7, c)
    # neither the laws on every code nor the first six results of the triple touch the cell
    assert cell not in {(a, b), (b, c), (a, c)} and R.one not in cell
    verdict = rl.verify_ring_axioms(R, seed=_SIDES_SEED, sample_triples=1)
    assert (verdict.holds, verdict.witness, verdict.note) == (False, None, "operation result out of code range")
    assert _sampled_axioms_by_triples(R, _SIDES_SEED, 1) == (
        verdict.holds, verdict.witness, verdict.note, verdict.mode
    )


def test_sampled_axioms_report_a_first_failure_past_the_first_chunk(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 16 * 5)  # chunks of 5 triples
    R = _broken_sampled(_NO_TABLES)
    verdict = rl.verify_ring_axioms(R, seed=3, sample_triples=_DIFFERENTIAL_TRIPLES)
    assert not verdict.holds and len(verdict.witness) == 3
    triples = np.random.default_rng(3).integers(0, R.size, size=(_DIFFERENTIAL_TRIPLES, 3)).tolist()
    assert triples.index(verdict.witness_codes()) >= 5
    assert _sampled_axioms_by_triples(R, 3, _DIFFERENTIAL_TRIPLES) == (
        verdict.holds, verdict.witness, verdict.note, verdict.mode
    )
