"""Suite registry spot checks on a reduced corpus; the full corpus runs in acceptance."""

import pytest

from ringlab import make_groupring, make_matrix, make_product, make_triangular, make_zmod
from ringlab.groups import cyclic, dihedral, quaternion8
from ringlab.invariants import uu_exponent
from ringlab.suites import SUITE_REGISTRY, explore_group_rings, run_suite
from ringlab.corpus import build_corpus


@pytest.fixture(scope="module")
def mini_corpus():
    rings = [make_zmod(n) for n in range(2, 10)]
    rings.append(make_product([make_zmod(2), make_zmod(3)]))
    rings.append(make_matrix(make_zmod(2), 2))
    rings.append(make_triangular(make_zmod(2), 2))
    rings.append(make_groupring(make_zmod(2), cyclic(2)))
    return rings


def test_registry_is_complete():
    assert sorted(SUITE_REGISTRY) == sorted(
        [
            "THM1-EQUIV",
            "MATRIX-LCM",
            "FIELD-UU",
            "PROP-UU",
            "ODD-2NIL",
            "DIV-UU",
            "ODD-SPLIT",
            "GCD-UU",
            "SNC-NC",
            "CLOSURE-PROD",
            "CLOSURE-CORNER",
            "NILQUOT",
            "NEG-MATRIX",
            "MORITA",
            "THM2-CONSTRUCTIVE",
            "GROUPRING-NEC",
            "GROUPRING-SUF",
            "UNIPO",
        ]
    )


def test_unknown_suite_raises(mini_corpus):
    with pytest.raises(KeyError):
        run_suite("NOSUCH", mini_corpus)


def test_thm1_equiv_on_mini_corpus(mini_corpus):
    result = run_suite("THM1-EQUIV", mini_corpus, n_range=(2, 9))
    assert result.holds
    assert len(result.records) == len(mini_corpus)
    for record in result.records:
        for flags in record.conditions.values():
            assert len(set(flags)) == 1


def test_matrix_lcm_records():
    result = run_suite("MATRIX-LCM", [], n_range=(1, 4))
    assert result.holds
    assert len(result.records) == 9
    by_ring = {r.ring: r.conditions for r in result.records}
    assert by_ring["M(2,GF(2))"] == {"brute": 3, "formula": 3}
    assert by_ring["M(2,GF(3))"] == {"brute": 8, "formula": 8}


def test_neg_matrix_skips_oversized():
    result = run_suite("NEG-MATRIX", [], n_range=(1, 6))
    assert result.holds
    skipped = [r for r in result.records if r.skipped]
    assert [r.ring for r in skipped] == ["M(3,Z(4))"]
    checked = {r.ring: r.conditions for r in result.records if not r.skipped}
    assert checked["M(2,Z(2))"] == {"4-UU": False, "5-UU": False}
    assert checked["M(3,Z(2))"] == {"3-UU": False, "6-UU": False}


def test_groupring_suf_examples(mini_corpus):
    rings = [
        make_groupring(make_zmod(2), cyclic(2)),
        make_groupring(make_zmod(2), cyclic(4)),
        make_groupring(make_zmod(4), cyclic(2)),
        make_groupring(make_zmod(2), quaternion8()),
    ]
    result = run_suite("GROUPRING-SUF", rings, n_range=(1, 4))
    assert result.holds
    for record in result.records:
        assert record.conditions.get("1") is True  # all four are UU at n = 1


def test_groupring_nec_on_mixed_groups():
    rings = [
        make_groupring(make_zmod(3), cyclic(2)),
        make_groupring(make_zmod(2), cyclic(3)),
        make_groupring(make_zmod(2), dihedral(3)),
    ]
    result = run_suite("GROUPRING-NEC", rings, n_range=(1, 12))
    assert result.holds


def test_morita_on_corpus_entries():
    from ringlab import make_ks, make_trivial_extension

    rings = [
        make_ks(make_zmod(4), 2),
        make_ks(make_zmod(2), 0),
        make_trivial_extension(make_zmod(4)),
    ]
    result = run_suite("MORITA", rings, n_range=(1, 6))
    assert result.holds
    labels = [r.ring for r in result.records]
    assert "Ks(Z(4),2)" in labels and "T(n,Z(2))" in labels


def test_morita_ignores_ks_with_non_nilpotent_scalar():
    from ringlab import make_ks

    rings = [make_ks(make_zmod(4), 1)]  # s = 1 is not nilpotent: theorem inapplicable
    result = run_suite("MORITA", rings, n_range=(1, 4))
    assert all(r.ring != "Ks(Z(4),1)" for r in result.records)


def test_explore_emits_dataset():
    groups = [cyclic(2), cyclic(3), quaternion8()]
    records = list(explore_group_rings([2, 3], groups, size_cap=300))
    built = [r for r in records if "skipped" not in r]
    assert len(built) >= 4
    by_pair = {(r["base"], r["group"]): r for r in built}
    assert by_pair[("Z(2)", "C(2)")]["uu_exponent"] == 1
    z3c2 = by_pair[("Z(3)", "C(2)")]
    assert z3c2["uu_exponent"] == 2 and not z3c2["is_uu"]
    assert "uu_witness" in z3c2
    z2c3 = by_pair[("Z(2)", "C(3)")]
    assert z2c3["uu_exponent"] == 3
    skipped = [r for r in records if "skipped" in r]
    assert any(r["group"] == "Q8" and r["base"] == "Z(3)" for r in skipped)


def test_explore_predictions_match_suf_theorem():
    # p-group records with p nilpotent in the base must come out n-UU at the
    # base's exponent
    groups = [cyclic(2), cyclic(4)]
    for record in explore_group_rings([2, 4], groups, size_cap=600):
        if "skipped" in record:
            continue
        assert record["uu_exponent"] == record["uu_exponent_base"]


def test_full_corpus_builds_cleanly():
    corpus = build_corpus()
    rings = [r for r in corpus if not isinstance(r, str)]
    assert len(rings) == 40
    labels = [r.label for r in rings]
    assert "GR(Z(2),Q8)" in labels
    assert any(lbl.startswith("Corner(M(2,Z(2))") for lbl in labels)
