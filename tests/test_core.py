"""Ring contract: element arithmetic, powering, characteristic, axiom checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringlab as rl
from ringlab import core, dsl, make_gf, make_ks, make_matrix, make_product, make_triangular, make_zmod
from ringlab.corpus import build_corpus
from ringlab.errors import AxiomViolation, CrossRingError, SizeExceeded


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


def test_axioms_catch_broken_identity():
    # corrupt only mul(1,1); the identity axiom should name the cell
    base = make_zmod(6)
    broken = rl.FiniteRing(
        6,
        base._add,
        lambda i, j: 0 if (i, j) == (1, 1) else (i * j) % 6,
        base._neg,
        one=1,
        label="broken",
    )
    verdict = rl.verify_ring_axioms(broken)
    assert not verdict.holds
    assert verdict.witness == [("a", 1), ("b", 1)]
    assert "identity" in verdict.note


def test_axioms_catch_broken_associativity():
    base = make_zmod(5)
    broken = rl.FiniteRing(
        5,
        base._add,
        lambda i, j: (i * j + (1 if (i, j) == (2, 3) else 0)) % 5,
        base._neg,
        one=1,
        label="broken-assoc",
    )
    verdict = rl.verify_ring_axioms(broken)
    assert not verdict.holds
    assert verdict.witness == [("a", 2), ("b", 2), ("c", 3)]
    assert verdict.note == "multiplication is not associative"


def _near_ring_z3(opposite):
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
    )


def _non_associative_gf2_algebra():
    # GF(2)-algebra on 1, x, y (code c0 + 2 c1 + 4 c2) with xy = x and every
    # other product of x and y zero: bilinear, unital, (xy)y = x but x(yy) = 0
    def mul(i, j):
        a0, a1, a2 = i & 1, i >> 1 & 1, i >> 2 & 1
        b0, b1, b2 = j & 1, j >> 1 & 1, j >> 2 & 1
        c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b2)
        c2 = (a0 & b2) ^ (a2 & b0)
        return (a0 & b0) | c1 << 1 | c2 << 2

    return rl.FiniteRing(8, lambda i, j: i ^ j, mul, lambda i: i, one=1, label="non-associative")


def _non_associative_addition():
    base = make_zmod(5)
    return rl.FiniteRing(
        5,
        lambda i, j: 4 if {i, j} == {1, 2} else (i + j) % 5,
        base._mul,
        base._neg,
        one=1,
        label="broken-add",
    )


def _addition_without_generators():
    # x + y = 0 for all nonzero x, y: commutative, with identity and inverses,
    # but from 0 each new code reaches only itself, so no log2 N generators exist
    return rl.FiniteRing(
        8,
        lambda i, j: i if j == 0 else (j if i == 0 else 0),
        lambda i, j: j if i == 1 else (i if j == 1 else 0),
        lambda i: i,
        one=1,
        label="no-generators",
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
        base._add,
        base._mul,
        lambda i: neg_zero if i == 0 else base._neg(i),
        one=1,
        label="broken-neg",
    )
    verdict = rl.verify_ring_axioms(broken)
    assert not verdict.holds
    assert verdict.note == "operation result out of code range"


@pytest.mark.parametrize("op, offset", [("neg", -5), ("neg", 5), ("add", 5), ("mul", 5)])
def test_sampled_axioms_reject_results_out_of_code_range(op, offset):
    # neg(0), or 2 + 2 or 2 * 2, is off by the modulus: every law still holds
    # modulo 5, so only the range check can tell
    guard = rl.ResourceGuard(mul_memo_budget_bytes=16)
    base = make_zmod(5, guard)
    ops = {
        "add": lambda i, j: base._add(i, j) + (offset if (op, i, j) == ("add", 2, 2) else 0),
        "mul": lambda i, j: base._mul(i, j) + (offset if (op, i, j) == ("mul", 2, 2) else 0),
        "neg": lambda i: base._neg(i) + (offset if (op, i) == ("neg", 0) else 0),
    }
    broken = rl.FiniteRing(5, ops["add"], ops["mul"], ops["neg"], one=1, label="broken-range", guard=guard)
    verdict = rl.verify_ring_axioms(broken, seed=3, sample_triples=5000)
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


def test_tables_match_scalar_ops():
    ring = make_gf(9)
    tabs = ring.tables()
    for i in range(9):
        for j in range(9):
            assert tabs.add[i, j] == ring._add(i, j)
            assert tabs.mul[i, j] == ring._mul(i, j)
        assert tabs.neg[i] == ring._neg(i)


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
    guard = rl.ResourceGuard(mul_memo_budget_bytes=16)
    ring = make_zmod(11, guard)
    verdict = rl.verify_ring_axioms(ring, seed=7, sample_triples=2000)
    assert verdict.holds
    assert verdict.mode == "sampled"


def test_sampled_mode_is_seed_deterministic():
    guard = rl.ResourceGuard(mul_memo_budget_bytes=16)
    base = make_zmod(13, guard)
    broken = rl.FiniteRing(
        13,
        base._add,
        lambda i, j: (i * j + (1 if (i, j) == (5, 7) else 0)) % 13,
        base._neg,
        one=1,
        label="broken-sampled",
        guard=guard,
    )
    first = rl.verify_ring_axioms(broken, seed=3, sample_triples=5000)
    second = rl.verify_ring_axioms(broken, seed=3, sample_triples=5000)
    assert not first.holds and not second.holds
    assert first.witness == second.witness
