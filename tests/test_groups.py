"""Group catalog: axioms, element orders, JSON Cayley tables."""

import json
import tracemalloc

import numpy as np
import pytest

from ringlab.errors import AxiomViolation, RangeCheckError
from ringlab.groups import (
    cyclic,
    dihedral,
    direct_product,
    factorize,
    from_cayley_json,
    quaternion8,
    symmetric,
)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(27) == {3: 3}


@pytest.mark.parametrize(
    "group,order",
    [
        (cyclic(1), 1),
        (cyclic(6), 6),
        (dihedral(3), 6),
        (dihedral(4), 8),
        (quaternion8(), 8),
        (symmetric(3), 6),
        (symmetric(4), 24),
        (direct_product(cyclic(2), cyclic(2)), 4),
    ],
)
def test_catalog_orders_and_axioms(group, order):
    assert group.order == order
    assert group.identity == 0
    # re-validate through the constructor's own checker
    revalidated = type(group)(group.table, group.label)
    assert revalidated.order == order


def test_element_orders_divide_group_order():
    for group in (cyclic(12), dihedral(5), quaternion8(), symmetric(4)):
        for g in range(group.order):
            assert group.order % group.element_order(g) == 0


def test_q8_structure():
    q8 = quaternion8()
    orders = sorted(q8.element_order(g) for g in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert q8.p_group_prime() == 2
    i = q8.table  # i*j = k and j*i = -k
    assert q8.element_label(int(i[2, 4])) == "k"
    assert q8.element_label(int(i[4, 2])) == "-k"


def test_dihedral_is_nonabelian():
    d3 = dihedral(3)
    assert any(
        d3.mul(a, b) != d3.mul(b, a) for a in range(6) for b in range(6)
    )
    assert d3.p_group_prime() is None


def test_symmetric_composition():
    s3 = symmetric(3)
    # lexicographic order puts the identity permutation first
    assert s3.element_label(0) == "(0 1 2)"
    for g in range(6):
        assert s3.mul(g, s3.inverse(g)) == 0


def test_cayley_json_roundtrip(tmp_path):
    d3 = dihedral(3)
    payload = {"order": 6, "table": d3.table.tolist(), "label": "D3-from-file"}
    path = tmp_path / "d3.json"
    path.write_text(json.dumps(payload))
    loaded = from_cayley_json(str(path))
    assert loaded.order == 6
    assert np.array_equal(loaded.table, d3.table)


@pytest.mark.parametrize(
    "content",
    ['{"order": 2,', '{"order": "x", "table": [[0, 1], [1, 0]]}', '{"order": 2, "table": [[0, 1], [1]]}'],
    ids=["syntax", "order", "ragged"],
)
def test_cayley_json_rejects_malformed_files(tmp_path, content):
    path = tmp_path / "g.json"
    path.write_text(content)
    with pytest.raises(AxiomViolation, match="malformed Cayley JSON"):
        from_cayley_json(str(path))


def test_cayley_json_rejects_non_latin_square():
    bad = {"order": 2, "table": [[0, 0], [1, 1]], "label": "bad"}
    with pytest.raises(AxiomViolation, match="not a Latin square at row/column 0"):
        from_cayley_json(bad)


def test_cayley_json_requires_identity_at_zero():
    # C2 with swapped labels: identity sits at index 1
    bad = {"order": 2, "table": [[1, 0], [0, 1]], "label": "shifted"}
    with pytest.raises(AxiomViolation):
        from_cayley_json(bad)


def test_cayley_json_rejects_nonassociative_latin_square():
    # order-5 Latin square that is a quasigroup but not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(AxiomViolation, match="table is not associative"):
        from_cayley_json({"order": 5, "table": table, "label": "quasigroup"})


def test_cayley_json_rejects_a_latin_square_without_identity_as_nonassociative():
    # x - y mod 3: an associative Latin square would be a group
    table = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
    with pytest.raises(AxiomViolation, match="table is not associative"):
        from_cayley_json({"order": 3, "table": table, "label": "difference"})


def test_cayley_json_checks_associativity_in_quadratic_memory():
    table = direct_product(cyclic(10), cyclic(20)).table
    tracemalloc.start()
    try:
        group = from_cayley_json({"order": 200, "table": table, "label": "C10xC20"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group.order == 200 and group.identity == 0
    # two order^3 cubes of int64 would take 128 MB
    assert peak < 16 * 2**20


def test_group_parameter_ranges():
    with pytest.raises(RangeCheckError):
        cyclic(0)
    with pytest.raises(RangeCheckError):
        symmetric(9)
