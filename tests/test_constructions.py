"""Builder contracts, checked against independent brute-force oracles."""

import math
from itertools import product

import numpy as np
import pytest

import ringlab as rl
from ringlab import (
    IdealSet,
    constructions,
    core,
    dsl,
    ideal_closure,
    integers_oracle,
    make_corner,
    make_formal_triangular,
    make_gf,
    make_groupring,
    make_ks,
    make_matrix,
    make_polyquot,
    make_product,
    make_quotient,
    make_trivial_extension,
    make_triangular,
    make_zmod,
    subring_closure,
)
from ringlab.constructions import decode_digits, prime_power, scalar_code, smallest_irreducible
from ringlab.errors import (
    AxiomViolation,
    NotAnIdeal,
    NotAPrimePower,
    NotIdempotent,
    RangeCheckError,
    SizeExceeded,
    UnsupportedConstruction,
    UnsupportedPredicate,
)
from ringlab.groups import cyclic, quaternion8
from ringlab.invariants import idempotents, jacobson_radical, nilpotent_codes, unit_codes, uu_exponent
from ringlab.predicates import is_n_uu


def brute_units(ring):
    """Oracle: elements with a two-sided inverse, by exhaustive search."""
    out = []
    for a in range(ring.size):
        if any(
            ring.mul(a, b) == ring.one and ring.mul(b, a) == ring.one
            for b in range(ring.size)
        ):
            out.append(a)
    return out


def brute_nilpotents(ring):
    """Oracle: direct power chase up to the ring size."""
    out = []
    for a in range(ring.size):
        x = a
        for _ in range(ring.size):
            if x == ring.zero:
                out.append(a)
                break
            x = ring.mul(x, a)
    return out


# -- residue rings -----------------------------------------------------------


def test_zmod_units_against_gcd(z12):
    assert unit_codes(z12) == [a for a in range(12) if math.gcd(a, 12) == 1]
    assert unit_codes(z12) == [1, 5, 7, 11]


def test_zmod_2_units_and_nilpotents():
    z2 = make_zmod(2)
    assert unit_codes(z2) == [1]
    assert nilpotent_codes(z2) == [0]


def test_zmod_4_nilpotents(z4):
    assert nilpotent_codes(z4) == [0, 2]
    assert z4.mul(2, 2) == 0


def test_zmod_range():
    with pytest.raises(RangeCheckError):
        make_zmod(1)


# -- finite fields -------------------------------------------------------------


def test_gf_prime_is_residue_ring():
    gf5 = make_gf(5)
    z5 = make_zmod(5)
    assert np.array_equal(gf5.tables().mul, z5.tables().mul)
    assert gf5.label == "GF(5)"


def test_gf4_cubes_are_one(gf4):
    for x in range(1, 4):
        assert gf4.pow_code(x, 3) == gf4.one


def test_gf9_unit_count():
    assert len(unit_codes(make_gf(9))) == 8


def test_gf8_modulus_is_smallest_irreducible_cubic():
    # oracle: a cubic over Z_2 is irreducible iff it has no roots
    def has_root(coeffs):
        return any(
            sum(c * x**i for i, c in enumerate(coeffs)) % 2 == 0 for x in (0, 1)
        )

    expected = None
    for c0, c1, c2 in product(range(2), repeat=3):
        coeffs = [c0, c1, c2, 1]
        if c0 != 0 and not has_root(coeffs):
            expected = coeffs
            break
    assert smallest_irreducible(2, 3) == expected == [1, 0, 1, 1]
    assert make_gf(8).meta["modulus"] == (1, 0, 1, 1)


def test_gf_rejects_non_prime_powers():
    for q in (6, 12, 15):
        with pytest.raises(NotAPrimePower):
            make_gf(q)


def test_gf_multiplication_against_polynomial_oracle():
    gf = make_gf(9)
    p, e, modulus = 3, 2, gf.meta["modulus"]

    def poly_mul(a, b):
        # schoolbook product reduced by x^2 = -modulus tail
        full = [0] * (2 * e - 1)
        for i in range(e):
            for j in range(e):
                full[i + j] = (full[i + j] + a[i] * b[j]) % p
        for m in range(2 * e - 2, e - 1, -1):
            lead = full[m]
            if lead:
                full[m] = 0
                for d in range(e):
                    full[m - e + d] = (full[m - e + d] - lead * modulus[d]) % p
        return full[:e]

    for a in range(9):
        for b in range(9):
            da, db = decode_digits(gf, a), decode_digits(gf, b)
            expected = poly_mul(da, db)
            got = decode_digits(gf, gf.mul(a, b))
            assert got == expected


def _kernel_guard(size):
    """A guard whose memo budget a ring of this size misses by one byte, so its
    ops() is the construction's kernel while every smaller ring keeps tables."""
    return rl.ResourceGuard(mul_memo_budget_bytes=8 * size * size - 1)


# small bases, the last two non-commutative
_TABLE_BASES = {"Z(2)": 2, "Z(4)": 4, "Z(6)": 6, "GF(4)": 4, "M(2,Z(2))": 16, "T(2,Z(2))": 8}
# each tuple construction, with its number of base digits
_TUPLE_CONSTRUCTIONS = [
    ("M(2,{0})", 4), ("T(2,{0})", 3), *((f"Ks({{0}},{s})", 4) for s in range(4)), ("TrivExt({0})", 2),
    ("Poly({0},3)", 3), ("Prod({0},Z(3))", 1), ("FT({0},{0})", 4), ("GR({0},C(2))", 2),
]
TUPLE_TABLE_EXPRS = [
    form.format(base) for form, digits in _TUPLE_CONSTRUCTIONS for base, b in _TABLE_BASES.items()
    if b ** digits <= 6 ** 4  # a kernel pass over 4096^2 cells takes about 2.5 s
] + [f"GF({q})" for q in range(4, 730) if prime_power(q) and prime_power(q)[1] > 1]


def _assert_tables_match_the_kernel(expr):
    # the tables, filled from additive generators, against the digit kernel on
    # every cell: additive associativity and right distributivity hold in the
    # tables by how they are filled, so only this comparison tests them there
    R = dsl.elaborate(dsl.parse_ring_expr(expr))
    assert R._tables_from_generators, expr
    kernel = dsl.elaborate(dsl.parse_ring_expr(expr), _kernel_guard(R.size)).ops()
    tabs = R.tables()
    codes = np.arange(R.size, dtype=np.int64)
    for lo in range(0, R.size, 256):
        rows = codes[lo : lo + 256, None]
        assert np.array_equal(tabs.add[lo : lo + 256], kernel.add(rows, codes)), (expr, lo)
        assert np.array_equal(tabs.mul[lo : lo + 256], kernel.mul(rows, codes)), (expr, lo)
    assert np.array_equal(tabs.neg, kernel.neg(codes)), expr


@pytest.mark.parametrize("expr", TUPLE_TABLE_EXPRS)
def test_tuple_tables_match_the_digit_kernel(expr):
    _assert_tables_match_the_kernel(expr)


def test_generator_fill_ends_row_chunks_mid_block(monkeypatch):
    # chunks of 3 rows, against doubling blocks of 1, 2, 1, 29, ... rows
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 3 * 6 ** 4)
    _assert_tables_match_the_kernel("M(2,Z(6))")


def _scalar_z6(guard):
    return rl.FiniteRing(6, lambda i, j: (i + j) % 6, lambda i, j: i * j % 6, lambda i: -i % 6, one=1, guard=guard)


OPS_RINGS = {
    expr: (lambda guard, expr=expr: dsl.elaborate(dsl.parse_ring_expr(expr), guard))
    for expr in (
        "Z(12)", "GF(9)", "M(2,Z(3))", "T(2,Z(4))", "Ks(Z(3),2)", "TrivExt(Z(4))", "Poly(Z(3),3)",
        "Prod(Z(4),Z(3))", "FT(Z(2),Z(2))", "GR(Z(3),C(2))", "Corner(T(2,Z(4)),#1)", "Quot(M(2,Z(4)),#2)",
    )
}
# the subring Z(4)[N] of M(2,Z(4)), N = [[0,1],[0,0]]: generated by [[1,1],[0,1]] (code 1 + 4 + 64)
OPS_RINGS["Sub"] = lambda guard: subring_closure(make_matrix(make_zmod(4, guard), 2, guard), [69])
OPS_RINGS["scalar functions"] = _scalar_z6


@pytest.mark.parametrize("name", OPS_RINGS)
def test_ops_kernel_matches_the_tables(name):
    # a ring's kernel (its ops() without tables) against its tables on every
    # cell, and both against the scalar operations
    build = OPS_RINGS[name]
    R = build(rl.ResourceGuard())
    K = build(_kernel_guard(R.size))
    assert R.table_capable and not K.table_capable and K.size == R.size
    tabs = R.tables()
    ops = K.ops()
    codes = np.arange(R.size)
    assert np.array_equal(ops.add(codes[:, None], codes), tabs.add), name
    assert np.array_equal(ops.mul(codes[:, None], codes), tabs.mul), name
    assert np.array_equal(ops.neg(codes), tabs.neg), name
    scalar = [[[K.add(i, j), K.mul(i, j)] for j in range(K.size)] for i in range(K.size)]
    assert scalar == np.stack([tabs.add, tabs.mul], axis=-1).tolist(), name
    assert [K.neg(i) for i in range(K.size)] == tabs.neg.tolist(), name
    assert K.try_tables() is None


def _c3_convolution(x, y):
    out = [0, 0, 0]
    for g in range(3):
        for h in range(3):
            out[(g + h) % 3] += x[g] * y[h]
    return out


# expr -> (digit modulus p, digit count, product of digit lists over Z), from
# each construction's definition: the code of digits d is sum d[t] * p**t
DEFINITIONS = {
    # polynomials mod x^2 + 1 over Z(3)
    "GF(9)": (3, 2, lambda x, y: [x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]]),
    # row-major entries, row by column
    "M(2,Z(3))": (3, 4, lambda x, y: [sum(x[2 * r + t] * y[2 * t + c] for t in range(2))
                                      for r in range(2) for c in range(2)]),
    # coefficients, constant first: truncated convolution
    "Poly(Z(4),3)": (4, 3, lambda x, y: [sum(x[i] * y[d - i] for i in range(d + 1)) for d in range(3)]),
    # (r, n)(r', n') = (rr', rn' + nr')
    "TrivExt(Z(4))": (4, 2, lambda x, y: [x[0] * y[0], x[0] * y[1] + x[1] * y[0]]),
    # coefficient of g^k at digit k, g^i g^j = g^(i+j mod 3)
    "GR(Z(2),C(3))": (2, 3, _c3_convolution),
}


def test_tables_and_kernel_match_the_definitions():
    for expr, (p, width, mul_digits) in DEFINITIONS.items():
        R = dsl.elaborate(dsl.parse_ring_expr(expr))
        n = R.size
        assert n == p ** width, expr
        digits = [[code // p ** t % p for t in range(width)] for code in range(n)]

        def code(ds):
            return sum(d % p * p ** t for t, d in enumerate(ds))

        add = [[code([a + b for a, b in zip(digits[i], digits[j])]) for j in range(n)] for i in range(n)]
        mul = [[code(mul_digits(digits[i], digits[j])) for j in range(n)] for i in range(n)]
        neg = [code([-a for a in digits[i]]) for i in range(n)]
        tabs = R.tables()
        assert (tabs.add.tolist(), tabs.mul.tolist(), tabs.neg.tolist()) == (add, mul, neg), expr
        kernel = dsl.elaborate(dsl.parse_ring_expr(expr), _kernel_guard(n)).ops()
        codes = np.arange(n)
        cells = (kernel.add(codes[:, None], codes), kernel.mul(codes[:, None], codes), kernel.neg(codes))
        assert tuple(c.tolist() for c in cells) == (add, mul, neg), expr


# -- matrix-shaped rings ---------------------------------------------------------


def test_matrix_m2z2_units_against_determinant(m2z2):
    # oracle over F_2: invertible iff det = ad - bc is nonzero
    expected = []
    for code in range(16):
        a, b, c, d = decode_digits(m2z2, code)
        if (a * d - b * c) % 2:
            expected.append(code)
    assert unit_codes(m2z2) == expected
    assert len(expected) == (4 - 1) * (4 - 2)  # |GL_2(F_2)|


def test_matrix_size_one_is_the_base_ring():
    z6 = make_zmod(6)
    m1 = make_matrix(z6, 1)
    assert np.array_equal(m1.tables().mul, z6.tables().mul)
    assert np.array_equal(m1.tables().add, z6.tables().add)


def test_matrix_m2z3_size(m2z3):
    assert m2z3.size == 81


def test_matrix_multiplication_against_numpy():
    ring = make_matrix(make_zmod(3), 2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        i, j = rng.integers(0, 81, size=2)
        A = np.array(decode_digits(ring, int(i))).reshape(2, 2)
        B = np.array(decode_digits(ring, int(j))).reshape(2, 2)
        expected = ((A @ B) % 3).reshape(-1).tolist()
        assert decode_digits(ring, ring.mul(int(i), int(j))) == expected


def test_triangular_sizes_and_nil_part(t2z2):
    assert t2z2.size == 8
    assert make_triangular(make_zmod(2), 3).size == 64
    # strictly-upper slot (0,1) squares to zero
    strict = [code for code in range(8) if decode_digits(t2z2, code)[0] == 0 and decode_digits(t2z2, code)[2] == 0]
    for code in strict:
        assert t2z2.mul(code, code) == t2z2.zero


def test_formal_triangular_shape():
    ft = make_formal_triangular(make_zmod(2), make_zmod(2))
    assert ft.size == 16
    r, a, b, s = 0, 1, 2, 3
    one_digits = decode_digits(ft, ft.one)
    assert one_digits == [1, 0, 0, 1]
    # {(0, m, 0)} is a square-zero ideal
    for code in range(16):
        digs = decode_digits(ft, code)
        if digs[r] == 0 and digs[s] == 0:
            assert ft.mul(code, code) == ft.zero


def test_formal_triangular_rejects_distinct_corners():
    with pytest.raises(UnsupportedConstruction):
        make_formal_triangular(make_zmod(2), make_zmod(3))


def test_product_basics():
    z2, z3 = make_zmod(2), make_zmod(3)
    prod = make_product([z2, z3])
    assert prod.size == 6
    assert rl.characteristic(prod) == 6
    # componentwise unit oracle
    expected = sorted(
        u + 2 * v for u in unit_codes(z2) for v in unit_codes(z3)
    )
    assert unit_codes(prod) == expected
    assert len(expected) == 2


def test_product_of_one_ring_is_identity():
    z7 = make_zmod(7)
    prod = make_product([z7])
    assert np.array_equal(prod.tables().mul, z7.tables().mul)


def test_ks_identity_and_squarezero_offdiagonal():
    ks0 = make_ks(make_zmod(2), 0)
    assert decode_digits(ks0, ks0.one) == [1, 0, 0, 1]
    for code in range(ks0.size):
        a, x, y, b = decode_digits(ks0, code)
        if a == 0 and b == 0:
            assert ks0.mul(code, code) == ks0.zero


def test_ks_trace_set_is_s_times_ring():
    ring = make_zmod(4)
    ks = make_ks(ring, 2)
    offdiag = [
        code
        for code in range(ks.size)
        if decode_digits(ks, code)[0] == 0 and decode_digits(ks, code)[3] == 0
    ]
    traces = set()
    for m in offdiag:
        for n in offdiag:
            traces.add(decode_digits(ks, ks.mul(m, n))[0])
    assert traces == {ring.mul(2, r) for r in range(4)}
    closure = ideal_closure(ks, offdiag)
    assert closure.is_nil()  # s = 2 is nilpotent mod 4


def test_trivial_extension_matches_truncated_polynomials():
    for modulus in (2, 4):
        te = make_trivial_extension(make_zmod(modulus))
        pq = make_polyquot(make_zmod(modulus), 2)
        assert np.array_equal(te.tables().mul, pq.tables().mul)
        assert np.array_equal(te.tables().add, pq.tables().add)


def test_trivial_extension_square_zero_part(z4):
    te = make_trivial_extension(z4)
    assert decode_digits(te, te.one) == [1, 0]
    for n in range(4):
        code = te.size // 4 * 0 + n * 4  # (0, n)
        assert te.mul(code, code) == te.zero


def test_polyquot_basics():
    z2 = make_zmod(2)
    pq1 = make_polyquot(z2, 1)
    assert np.array_equal(pq1.tables().mul, z2.tables().mul)
    pq = make_polyquot(z2, 2)
    x = 2  # digits (0, 1)
    assert pq.pow_code(x, 2) == pq.zero
    assert unit_codes(pq) == [1, 3]  # 1 and 1 + x
    assert unit_codes(pq) == brute_units(pq)


def test_polyquot_principal_ideal_is_nil():
    pq = make_polyquot(make_zmod(4), 2)
    x = 4  # digits (0, 1)
    ideal = ideal_closure(pq, [x])
    assert ideal.is_nil()


def test_groupring_c2():
    rg = make_groupring(make_zmod(2), cyclic(2))
    assert rg.size == 4
    one_plus_g = 3  # coefficients (1, 1)
    assert rg.mul(one_plus_g, one_plus_g) == rg.zero


def test_groupring_trivial_group_is_base():
    z5 = make_zmod(5)
    rg = make_groupring(z5, cyclic(1))
    assert np.array_equal(rg.tables().mul, z5.tables().mul)


def test_groupring_c4_size():
    assert make_groupring(make_zmod(2), cyclic(4)).size == 16


def test_groupring_convolution_oracle():
    rg = make_groupring(make_zmod(3), cyclic(3))
    g = cyclic(3)
    rng = np.random.default_rng(2)
    for _ in range(40):
        i, j = (int(v) for v in rng.integers(0, 27, size=2))
        x, y = decode_digits(rg, i), decode_digits(rg, j)
        expected = [0, 0, 0]
        for a in range(3):
            for b in range(3):
                expected[g.mul(a, b)] = (expected[g.mul(a, b)] + x[a] * y[b]) % 3
        assert decode_digits(rg, rg.mul(i, j)) == expected


# -- corners, ideals, quotients, subrings ----------------------------------------


def test_corner_at_one_is_the_ring(m2z2):
    corner = make_corner(m2z2, m2z2.one)
    assert corner.size == m2z2.size
    assert np.array_equal(corner.tables().mul, m2z2.tables().mul)


def test_corner_at_matrix_unit(m2z2):
    # E_11 has code 1 in row-major digit order
    corner = make_corner(m2z2, 1)
    assert corner.size == 2
    z2 = make_zmod(2)
    assert np.array_equal(corner.tables().mul, z2.tables().mul)


def test_corner_of_z6_central_idempotents(z6):
    for e, size in ((3, 2), (4, 3)):
        corner = make_corner(z6, e)
        assert corner.size == size
        assert rl.verify_ring_axioms(corner).holds
        # CRT factor: every nonzero element is a unit
        assert len(unit_codes(corner)) == size - 1


def test_corner_rejects_non_idempotent(z4):
    with pytest.raises(NotIdempotent):
        make_corner(z4, 3)
    with pytest.raises(NotIdempotent):
        make_corner(z4, 0)


def test_ideal_closure_oracle(z12):
    assert ideal_closure(z12, [0]).members().tolist() == [0]
    assert ideal_closure(z12, [2]).members().tolist() == list(range(0, 12, 2))
    small = ideal_closure(z12, [6])
    assert small.members().tolist() == [0, 6]
    assert small.members().tolist() == jacobson_radical(z12).members().tolist()


def test_quotient_by_zero_is_identity(z12):
    q = make_quotient(z12, ideal_closure(z12, [0]))
    assert np.array_equal(q.tables().mul, z12.tables().mul)


def test_quotient_z12_by_6_is_z6(z12):
    q = make_quotient(z12, ideal_closure(z12, [6]))
    z6 = make_zmod(6)
    assert np.array_equal(q.tables().add, z6.tables().add)
    assert np.array_equal(q.tables().mul, z6.tables().mul)


def test_quotient_z4_by_2_is_z2(z4):
    q = make_quotient(z4, ideal_closure(z4, [2]))
    z2 = make_zmod(2)
    assert np.array_equal(q.tables().mul, z2.tables().mul)


def test_quotient_rejects_non_ideal(z12):
    mask = np.zeros(12, dtype=bool)
    mask[[0, 1]] = True
    with pytest.raises(NotAnIdeal):
        make_quotient(z12, IdealSet(z12, mask, [1]))


def test_subring_closure_prime_subring(gf4, z12):
    assert subring_closure(gf4, []).size == 2
    assert subring_closure(z12, []).size == 12  # 1 generates all of Z_12


def test_subring_closure_of_identity_matrix(m2z2):
    assert subring_closure(m2z2, [m2z2.one]).size == 2


def test_subring_closure_of_field_generator(gf4):
    # any element outside the prime field generates all of GF(4)
    d = 2
    assert subring_closure(gf4, [d]).size == 4


def test_subring_is_actual_subring(m2z3):
    sub = subring_closure(m2z3, [3])
    carrier = sub.meta["carrier"]
    for i in range(sub.size):
        for j in range(sub.size):
            assert carrier[sub.mul(i, j)] == m2z3.mul(int(carrier[i]), int(carrier[j]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ideal_closure(make_zmod(12), [-4]),
        lambda: subring_closure(make_matrix(make_zmod(2), 2), [-1]),
        lambda: make_corner(make_zmod(12), 12),
    ],
    ids=["ideal_closure", "subring_closure", "make_corner"],
)
def test_derived_rings_reject_codes_out_of_range(call):
    with pytest.raises(RangeCheckError, match="outside"):
        call()


def _z4_with_broken_negation(guard):
    # x -> 1 - x is no additive inverse: {0, 2} is closed under + but not under it
    return rl.FiniteRing(4, lambda i, j: (i + j) % 4, lambda i, j: i * j % 4, lambda i: (1 - i) % 4,
                         one=1, guard=guard)


def _m2z2(guard):
    return make_matrix(make_zmod(2, guard), 2, guard)


IDEAL_REASONS = {
    "zero missing": (lambda guard: make_zmod(12, guard), [2, 4]),
    "not closed under addition": (lambda guard: make_zmod(12, guard), [0, 1, 11]),
    "not closed under negation": (_z4_with_broken_negation, [0, 2]),
    # {0, E11}: E21 * E11 = E21 leaves it
    "not a left ideal": (_m2z2, [0, 1]),
    # the first column (E11 and E21, codes 1 and 4) is a left ideal only: E11 * E12 = E12
    "not a right ideal": (_m2z2, [0, 1, 4, 5]),
    None: (lambda guard: make_zmod(12, guard), [0, 4, 8]),
}


def _verify_ideal_by_elements(I):
    """Reference: the reason of IdealSet.verify_ideal, one element pair at a time."""
    R, mask = I.ring, I.mask
    mem = I.members().tolist()
    if not mask[R.zero]:
        return False, "zero missing"
    if not all(mask[R.add(a, b)] for a in mem for b in mem):
        return False, "not closed under addition"
    if not all(mask[R.neg(a)] for a in mem):
        return False, "not closed under negation"
    if not all(mask[R.mul(r, a)] for r in range(R.size) for a in mem):
        return False, "not a left ideal"
    if not all(mask[R.mul(a, r)] for a in mem for r in range(R.size)):
        return False, "not a right ideal"
    return True, None


@pytest.mark.parametrize("kernel", [False, True], ids=["tables", "kernel"])
@pytest.mark.parametrize("reason", IDEAL_REASONS, ids=str)
def test_verify_ideal_names_each_failure(reason, kernel):
    build, members = IDEAL_REASONS[reason]
    R = build(rl.ResourceGuard())
    if kernel:
        R = build(_kernel_guard(R.size))
    assert R.table_capable is not kernel
    mask = np.zeros(R.size, dtype=bool)
    mask[members] = True
    I = IdealSet(R, mask)
    assert I.verify_ideal() == (reason is None, reason)
    assert _verify_ideal_by_elements(I) == (reason is None, reason)


def _ideal_closure_by_elements(R, codes):
    """Reference: grow the set by every sum, negative and product with the ring until it is stable."""
    mask = np.zeros(R.size, dtype=bool)
    mask[[R.zero, *codes]] = True
    while True:
        acc = set(np.flatnonzero(mask).tolist())
        for a in np.flatnonzero(mask).tolist():
            acc.add(R.neg(a))
            for b in np.flatnonzero(mask).tolist():
                acc.add(R.add(a, b))
            for r in range(R.size):
                acc.add(R.mul(r, a))
                acc.add(R.mul(a, r))
        new = np.array(sorted(acc))
        if mask[new].all():
            return mask
        mask[new] = True


def _subring_carrier_by_elements(R, codes):
    """Reference: grow {0, 1} and the generators by every sum, negative and product until stable."""
    acc = {R.zero, R.one, *codes}
    while True:
        grown = set(acc)
        for a in acc:
            grown.add(R.neg(a))
            for b in acc:
                grown.add(R.add(a, b))
                grown.add(R.mul(a, b))
        if grown == acc:
            return sorted(acc)
        acc = grown


def _is_nil_by_elements(I):
    """Reference: chase the sets of products of k members until {0}, or until a
    set recurs, after which the chase cycles."""
    R = I.ring
    mem = I.members().tolist()
    current, seen = frozenset(mem), set()
    while current not in seen:
        if current == {R.zero}:
            return True
        seen.add(current)
        current = frozenset(R.mul(x, y) for x in current for y in mem)
    return False


def _rep_map_by_elements(R, I):
    """Reference: the least code of each coset a + I."""
    return [min(R.add(a, i) for i in I.members().tolist()) for a in range(R.size)]


def _corner_carrier_by_elements(R, e):
    """Reference: the codes e * r * e over every r."""
    return sorted({R.mul(R.mul(e, r), e) for r in range(R.size)})


DERIVED_RINGS = ("Z(12)", "Prod(Z(2),Z(3))", "M(2,Z(2))", "T(2,Z(4))", "TrivExt(Z(4))", "GR(Z(2),C(4))",
                 "Poly(Z(3),2)", "FT(Z(2),Z(2))")


@pytest.mark.parametrize("block", [constructions.BLOCK_ENTRIES, 97])
@pytest.mark.parametrize("kernel", [False, True], ids=["tables", "kernel"])
def test_derived_rings_match_the_element_loops(kernel, block, monkeypatch):
    # 97 entries per block: the passes over these rings' rows end mid-ring
    monkeypatch.setattr(constructions, "BLOCK_ENTRIES", block)
    rng = np.random.default_rng(7)
    for expr in DERIVED_RINGS:
        R = dsl.elaborate(dsl.parse_ring_expr(expr))
        if kernel:
            R = dsl.elaborate(dsl.parse_ring_expr(expr), _kernel_guard(R.size))
        assert R.table_capable is not kernel
        nilpotent = set(brute_nilpotents(R))
        for g in range(0, R.size, max(1, R.size // 16)):
            I = ideal_closure(R, [g])
            assert I.mask.tolist() == _ideal_closure_by_elements(R, [g]).tolist(), (expr, g)
            assert I.verify_ideal() == (True, None)
            assert I.is_nil() == _is_nil_by_elements(I), (expr, g)
            # a nil ideal of a finite ring is nilpotent (Levitzki)
            assert I.is_nil() == (set(I.members().tolist()) <= nilpotent), (expr, g)
            if R.one not in I:  # R/R has one element, no unital ring
                Q = make_quotient(R, I)
                assert Q.meta["rep_map"].tolist() == _rep_map_by_elements(R, I), (expr, g)
                assert Q.meta["carrier"].tolist() == sorted(set(Q.meta["rep_map"].tolist()))
            for gens in ([g], [g, int(rng.integers(R.size))]):
                S = subring_closure(R, gens)
                assert S.meta["carrier"].tolist() == _subring_carrier_by_elements(R, gens), (expr, gens)
            # a random set with zero, mostly not an ideal
            mask = rng.random(R.size) < 0.3
            mask[R.zero] = True
            J = IdealSet(R, mask)
            assert J.verify_ideal() == _verify_ideal_by_elements(J), (expr, g)
        for e in idempotents(R):
            if e != R.zero:
                C = make_corner(R, e)
                assert C.meta["carrier"].tolist() == _corner_carrier_by_elements(R, e), (expr, e)


# -- the integers oracle -----------------------------------------------------------


def test_integers_oracle_predicates():
    Z = integers_oracle()
    assert is_n_uu(Z, 2).holds
    verdict = is_n_uu(Z, 3)
    assert not verdict.holds
    assert verdict.witness == [("u", -1)]
    assert uu_exponent(Z) == 2


def test_integers_oracle_rejects_enumeration():
    Z = integers_oracle()
    with pytest.raises(UnsupportedPredicate):
        jacobson_radical(Z)
    with pytest.raises(UnsupportedPredicate):
        rl.invariants.idempotents(Z)


# -- guards and scalar embedding ---------------------------------------------------


def test_size_guards():
    z4 = make_zmod(4)
    with pytest.raises(SizeExceeded):
        make_matrix(z4, 3)  # 4^9 = 262144
    guard = rl.ResourceGuard(max_ring_size=100)
    with pytest.raises(SizeExceeded):
        make_groupring(make_zmod(2, guard), quaternion8(), guard)


def test_scalar_code():
    z6 = make_zmod(6)
    assert scalar_code(z6, 2) == 2
    assert scalar_code(z6, 8) == 2
    assert scalar_code(z6, 0) == 0


def test_scalar_code_rejects_a_one_without_additive_order():
    # with add = max, 1 + 1 = 1 never returns to 0
    R = rl.FiniteRing(3, max, lambda i, j: i * j % 3, lambda i: i, one=1)
    with pytest.raises(AxiomViolation, match="no finite additive order"):
        scalar_code(R, 2)


def test_every_builder_passes_axioms():
    rings = [
        make_zmod(9),
        make_gf(8),
        make_matrix(make_zmod(2), 2),
        make_triangular(make_zmod(4), 2),
        make_ks(make_zmod(2), 1),
        make_trivial_extension(make_zmod(3)),
        make_polyquot(make_zmod(3), 2),
        make_product([make_zmod(2), make_zmod(5)]),
        make_groupring(make_zmod(3), cyclic(2)),
        make_formal_triangular(make_zmod(3), make_zmod(3)),
        make_corner(make_matrix(make_zmod(2), 2), 1),
        make_quotient(make_zmod(8), ideal_closure(make_zmod(8), [4])),
        subring_closure(make_gf(9), [3]),
    ]
    for ring in rings:
        verdict = rl.verify_ring_axioms(ring)
        assert verdict.holds, (ring.label, verdict.note, verdict.witness)
