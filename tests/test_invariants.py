"""Structural invariants against brute-force oracles and known closed forms."""

import math

import numpy as np
import pytest

import ringlab as rl
from ringlab import invariants, make_gf, make_matrix, make_quotient, make_zmod
from ringlab.constructions import decode_digits
from ringlab.corpus import build_corpus
from ringlab.invariants import (
    cache,
    center,
    idempotents,
    jacobson_radical,
    n_potents,
    nilpotent_codes,
    unipotence_exponent,
    unit_codes,
    units,
    uu_exponent,
)
from ringlab.predicates import lcm_criterion


def test_units_z12_gcd_oracle(z12):
    assert unit_codes(z12) == [a for a in range(12) if math.gcd(a, 12) == 1]


def test_units_carry_two_sided_inverses(z12, m2z2, t2z2):
    for ring in (z12, m2z2, t2z2):
        for u, v in units(ring):
            assert ring.mul(u, v) == ring.one
            assert ring.mul(v, u) == ring.one


def test_units_m2z2_determinant_oracle(m2z2):
    dets = []
    for code in range(16):
        a, b, c, d = decode_digits(m2z2, code)
        if (a * d - b * c) % 2 == 1:
            dets.append(code)
    assert unit_codes(m2z2) == dets
    assert len(dets) == 6


def test_units_gf5():
    assert unit_codes(make_gf(5)) == [1, 2, 3, 4]


def test_nilpotents_by_power_oracle(z12):
    def oracle(ring):
        out = []
        for a in range(ring.size):
            x = a
            for _ in range(ring.size):
                if x == ring.zero:
                    out.append(a)
                    break
                x = ring.mul(x, a)
        return out

    assert nilpotent_codes(z12) == oracle(z12) == [0, 6]
    z8 = make_zmod(8)
    assert nilpotent_codes(z8) == oracle(z8) == [0, 2, 4, 6]
    for q in (4, 9):
        assert nilpotent_codes(make_gf(q)) == [0]


def test_n_potents(z6):
    assert n_potents(z6, 2) == [0, 1, 3, 4]
    z3 = make_zmod(3)
    assert n_potents(z3, 3) == [0, 1, 2]
    assert n_potents(rl.make_gf(4), 2) == [0, 1]


def test_n_potents_requires_n_at_least_two(z6):
    with pytest.raises(ValueError):
        n_potents(z6, 1)


def test_radical_zn_matches_radical_of_modulus():
    # oracle: J(Z_n) = rad(n) Z_n where rad is the squarefree kernel
    for n in (12, 8, 27, 36):
        ring = make_zmod(n)
        rad = 1
        for p in set(
            p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))
        ):
            rad *= p
        expected = sorted(set(range(0, n, rad)))
        assert jacobson_radical(ring).members().tolist() == expected


def test_radical_of_fields_is_zero():
    for q in (4, 5, 9):
        assert jacobson_radical(make_gf(q)).members().tolist() == [0]


def test_radical_t2z2_brute_force(t2z2):
    # oracle: a in J iff 1 - r*a is a unit for every r (exhaustive)
    unit_set = set(unit_codes(t2z2))
    expected = [
        a
        for a in range(8)
        if all(t2z2.sub(t2z2.one, t2z2.mul(r, a)) in unit_set for r in range(8))
    ]
    got = jacobson_radical(t2z2).members().tolist()
    assert got == expected
    assert len(got) == 2  # zero and the strictly-upper matrix unit


def _radical_by_elements(R):
    """a in J(R) iff 1 - r*a is a unit for every r, one element a at a time."""
    tabs = R.tables()
    units = cache(R).unit_mask
    return np.array(
        [units[tabs.add[R.one, tabs.neg[tabs.mul[:, a]]]].all() for a in range(R.size)]
    )


@pytest.mark.parametrize("block", [invariants.BLOCK_ENTRIES, 97])
def test_blocked_radical_matches_the_element_by_element_definition(block, monkeypatch):
    monkeypatch.setattr(invariants, "BLOCK_ENTRIES", block)
    for R in build_corpus():
        if isinstance(R, str):
            continue
        quotient = make_quotient(R, jacobson_radical(R))
        for ring in (R, quotient):
            assert np.array_equal(cache(ring).radical_mask, _radical_by_elements(ring)), ring.label


def test_radical_is_nilpotent_ideal(z12, m2z2, t2z2):
    for ring in (z12, m2z2, t2z2):
        ideal = jacobson_radical(ring)
        ok, why = ideal.verify_ideal()
        assert ok, why
        assert ideal.is_nil()


def test_one_plus_radical_lands_in_units(z12, t2z2, z2q8):
    for ring in (z12, t2z2, z2q8):
        unit_set = set(unit_codes(ring))
        for a in jacobson_radical(ring).members().tolist():
            assert ring.add(ring.one, a) in unit_set


def test_unipotence_exponent_examples(z12):
    z5 = make_zmod(5)
    assert unipotence_exponent(z5.elem(2)) == 4
    assert unipotence_exponent(z5.elem(1)) == 1
    assert unipotence_exponent(z12.elem(7)) == 1  # 7 - 1 = 6 is nilpotent mod 12


def test_unipotence_exponent_rejects_non_units(z12):
    with pytest.raises(ValueError):
        unipotence_exponent(z12.elem(6))


def test_unipotence_exponent_on_integers_oracle():
    from ringlab import integers_oracle

    Z = integers_oracle()
    assert unipotence_exponent(Z, 1) == 1
    assert unipotence_exponent(Z, -1) == 2
    with pytest.raises(ValueError):
        unipotence_exponent(Z, 2)


def test_unipotent_powers_are_exactly_multiples(z12, m2z2):
    # the set {n : u^n is unipotent} must equal the multiples of d_u
    for ring in (z12, m2z2, make_gf(9)):
        nil = set(nilpotent_codes(ring))
        for u in unit_codes(ring):
            d = unipotence_exponent(ring.elem(u))
            for n in range(1, 25):
                unipotent = ring.sub(ring.pow_code(u, n), ring.one) in nil
                assert unipotent == (n % d == 0), (ring.label, u, n)


def test_uu_exponent_golden_values(m2z2, m2z3):
    assert uu_exponent(m2z2) == 3
    assert uu_exponent(m2z3) == 8
    assert uu_exponent(make_zmod(7)) == 6


def test_uu_exponent_of_finite_fields_is_q_minus_1():
    for q in (2, 3, 4, 5, 7, 8, 9, 13):
        assert uu_exponent(make_gf(q)) == q - 1


def test_uu_exponent_divides_unit_group_exponent(z12, m2z2):
    for ring in (z12, m2z2):
        exponent = 1
        for u in unit_codes(ring):
            x, k = u, 1
            while x != ring.one:
                x = ring.mul(x, u)
                k += 1
            exponent = math.lcm(exponent, k)
        assert exponent % uu_exponent(ring) == 0


def test_matrix_uu_exponent_matches_lcm_formula():
    for q, m in ((2, 1), (3, 1), (5, 1), (7, 1), (4, 1), (2, 2), (3, 2), (4, 2), (5, 2), (2, 3)):
        ring = make_matrix(make_gf(q), m)
        assert uu_exponent(ring) == lcm_criterion(q, m), (q, m)


@pytest.mark.slow
def test_matrix_uu_exponent_up_to_the_4096_boundary():
    # the remaining (q, m) grid points with ring size <= 4096
    for q, m, expected in ((7, 2, 48), (8, 2, 63)):
        ring = make_matrix(make_gf(q), m)
        assert ring.size <= 4096
        assert uu_exponent(ring) == lcm_criterion(q, m) == expected


def test_nilpotents_and_idempotents_above_the_memo_budget():
    # M_3(GF(3)) without tables: q^(k^2 - k) nilpotent matrices (Fine-Herstein),
    # and one idempotent per splitting GF(3)^3 = image + kernel, that is
    # sum over r of |GL_3| / (|GL_r| |GL_(3-r)|)
    q, k = 3, 3
    R = make_matrix(make_zmod(q), k)
    assert not R.table_capable

    def gl(m):
        return math.prod(q**m - q**i for i in range(m))

    assert len(nilpotent_codes(R)) == q ** (k * k - k) == 729
    assert len(idempotents(R)) == sum(gl(k) // (gl(r) * gl(k - r)) for r in range(k + 1)) == 236
    assert R.try_tables() is None


def test_center_of_commutative_rings(z12):
    assert center(z12).all()


def test_center_of_m2z2_is_scalars(m2z2):
    got = sorted(int(c) for c in np.flatnonzero(center(m2z2)))
    assert got == [m2z2.zero, m2z2.one]


def test_center_t2z2_brute_force(t2z2):
    expected = [
        c
        for c in range(8)
        if all(t2z2.mul(c, r) == t2z2.mul(r, c) for r in range(8))
    ]
    got = sorted(int(c) for c in np.flatnonzero(center(t2z2)))
    assert got == expected == [0, 5]


def test_idempotents(z6, gf4):
    assert idempotents(z6) == [0, 1, 3, 4]
    assert idempotents(gf4) == [0, 1]


def test_cache_is_memoized(z12):
    c1 = cache(z12)
    c2 = cache(z12)
    assert c1 is c2
