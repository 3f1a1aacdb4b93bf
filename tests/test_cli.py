"""Command line surface: exit codes, formats, corpus files, environment override."""

import json
import subprocess
import sys

import pytest

from ringlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_succeeds(capsys):
    code, out, _ = run_cli(capsys, "table")
    assert code == 0
    assert "all 30 cells match" in out


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_reference"] is True
    assert payload["rows"]["M(2,Z(2))"] == [False, True, False, True, True, False]
    assert payload["columns"][0] == "2-UU"


def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "M(2,Z(2))")
    assert code == 0
    assert "uu-exponent: 3" in out
    assert "size: 16" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z(7)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["uu_exponent"] == 6
    assert payload["classes"]["6-UU"] is True
    assert payload["classes"]["8-UU"] is False


def test_classify_integers_reports_na(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] is None
    assert payload["classes"]["2-UU"] is True
    assert payload["classes"]["nil-clean"] is None


def test_table_names_the_differing_cell_on_mismatch(capsys, monkeypatch):
    # mutate the reference to simulate a corrupted engine; the command must
    # exit 1 and name the cell
    import ringlab.cli as cli_mod

    mutated = dict(cli_mod.TABLE_EXPECTED)
    mutated["Z(7)"] = [False, False, False, True, False, False]  # flip 6-UU
    monkeypatch.setattr(cli_mod, "TABLE_EXPECTED", mutated)
    code, _, err = run_cli(capsys, "table")
    assert code == 1
    assert "Z(7)" in err and "6-UU" in err


def test_classify_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "M(2 Z(2))")
    assert code == 2
    assert "error" in err


def test_classify_guard_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "M(3,Z(4))")
    assert code == 2
    assert "exceeds guard" in err


def test_max_size_flag_and_env(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "classify", "Z(101)", "--max-size", "100")
    assert code == 2
    monkeypatch.setenv("RINGLAB_MAX_SIZE", "100")
    code, _, _ = run_cli(capsys, "classify", "Z(101)")
    assert code == 2
    code, _, _ = run_cli(capsys, "classify", "Z(99)")
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_max_size_env_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("RINGLAB_MAX_SIZE", value)
    code, out, err = run_cli(capsys, "table")
    assert code == 2
    assert out == ""
    assert err.startswith("error: max size must be a positive integer")


def test_nonpositive_max_size_flag_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "Z(5)", "--max-size", "-5")
    assert code == 2
    assert err.startswith("error: max size must be a positive integer")


def test_list_units_of_integers(capsys):
    code, out, _ = run_cli(capsys, "list", "units", "Z")
    assert code == 0
    assert out.strip() == "1, -1"


def test_list_rejects_integers_enumeration(capsys):
    code, _, err = run_cli(capsys, "list", "idempotents", "Z")
    assert code == 2
    assert "cannot enumerate" in err


def test_list_idempotents_z6(capsys):
    code, out, _ = run_cli(capsys, "list", "idempotents", "Z(6)")
    assert code == 0
    codes = [line.split("\t")[0] for line in out.strip().splitlines()]
    assert codes == ["#0", "#1", "#3", "#4"]


def test_list_radical_t2z2(capsys):
    code, out, _ = run_cli(capsys, "list", "radical", "T(2,Z(2))")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_list_npotents_needs_n(capsys):
    code, _, err = run_cli(capsys, "list", "npotents", "Z(6)")
    assert code == 2
    code, out, _ = run_cli(capsys, "list", "npotents", "Z(6)", "--n", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_list_renders_matrices(capsys):
    code, out, _ = run_cli(capsys, "list", "units", "M(2,Z(2))")
    assert code == 0
    assert "[[1,0],[0,1]]" in out


def test_decompose_examples(capsys):
    code, out, _ = run_cli(capsys, "decompose", "Z(4)", "#3", "n-nilclean", "--n", "2")
    assert code == 0
    assert "f=#1" in out and "q=#2" in out

    code, out, _ = run_cli(capsys, "decompose", "Z(6)", "#2", "piregular")
    assert code == 0
    assert "e=#4" in out and "u=#5" in out and "w=#0" in out

    code, out, _ = run_cli(capsys, "decompose", "Z(5)", "#2", "nilclean")
    assert code == 0
    assert out.strip() == "none"


def test_decompose_bad_code_exits_2(capsys):
    code, _, err = run_cli(capsys, "decompose", "Z(5)", "#9", "nilclean")
    assert code == 2
    code, _, err = run_cli(capsys, "decompose", "Z(5)", "x", "nilclean")
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "MATRIX-LCM")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 9
    for record in lines:
        assert record["suite"] == "MATRIX-LCM"
        assert record["holds"] is True
        assert record["config"]["corpus"] == "builtin"


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "NOSUCH")
    assert code == 2
    assert "unknown suite" in err


def test_verify_custom_corpus_file(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# residue rings only\nZ(4)\nZ(9)  # with a comment\n\nGF(4)\n")
    code, out, _ = run_cli(capsys, "verify", "FIELD-UU", "--corpus", str(corpus), "--n-range", "1..6")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["ring"] for r in lines] == ["GF(4)"]
    assert lines[0]["config"]["corpus"] == str(corpus)


def test_corpus_file_comments_coexist_with_element_references(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "# full line comment\n"
        "Corner(M(2,Z(2)),#1)  # corner at a matrix unit\n"
        "Quot(Z(12),#6)\n"
    )
    code, out, _ = run_cli(capsys, "verify", "UNIPO", "--corpus", str(corpus), "--n-range", "1..4")
    assert code == 0
    rings = [json.loads(line)["ring"] for line in out.strip().splitlines()]
    assert rings == ["Corner(M(2,Z(2)),#1)", "Quot(Z(12),#6)"]


def test_verify_failure_exits_1(capsys, monkeypatch):
    # harness contract: a failing suite must exit 1 and surface the witness
    from ringlab import suites as suites_mod

    fake_suite = suites_mod.Suite(
        items=lambda corpus: ["Z(4)"],
        check=lambda item, n_range, guard: ({}, False, [["u", 3]]),
        label=str,
    )
    monkeypatch.setitem(suites_mod.SUITE_REGISTRY, "FIELD-UU", fake_suite)
    code, out, err = run_cli(capsys, "verify", "FIELD-UU")
    assert code == 1
    assert "witness" in err
    record = json.loads(out.strip().splitlines()[0])
    assert record["holds"] is False


def test_verify_missing_corpus_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "FIELD-UU", "--corpus", "/nonexistent/corpus.txt")
    assert code == 2


def test_corpus_entries_beyond_the_guard_are_skipped_and_reported(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Z(8)\nM(3,Z(4))\n")
    code, out, _ = run_cli(capsys, "verify", "UNIPO", "--corpus", str(corpus), "--n-range", "1..2")
    assert code == 0  # skips are reported, not failures
    records = [json.loads(line) for line in out.strip().splitlines()]
    skipped = [r for r in records if r.get("skipped")]
    assert len(skipped) == 1 and "M(3,Z(4))" in skipped[0]["ring"]


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.jsonl"
    code, out, _ = run_cli(capsys, "verify", "MATRIX-LCM", "--out", str(path))
    assert code == 0
    assert out == ""
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 9


def test_out_with_missing_parent_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "out.jsonl"
    code, out, err = run_cli(capsys, "table", "--out", str(path))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_out_naming_a_directory_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "table", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error:")


def test_explore_writes_dataset(capsys):
    code, out, _ = run_cli(capsys, "explore", "--moduli", "2,3", "--groups", "C(2),C(3)", "--size-cap", "100")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 4
    assert all("config" in r for r in records)


def test_explore_defaults_yield_at_least_twenty_records(capsys):
    code, out, _ = run_cli(capsys, "explore")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    built = [r for r in records if "skipped" not in r]
    assert len(built) >= 20


def test_explore_empty_catalog_exits_2(capsys):
    code, _, err = run_cli(capsys, "explore", "--groups", "")
    assert code == 2


def test_explore_group_expression_with_commas(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "--moduli", "2", "--groups", "GxG(C(2),C(2))", "--size-cap", "20"
    )
    assert code == 0
    record = json.loads(out.strip().splitlines()[0])
    assert record["group"] == "GxG(C(2),C(2))"
    assert record["group_order"] == 4


def test_usage_error_exits_2(capsys):
    assert main(["classify"]) == 2  # missing expression
    assert main(["verify", "ALL", "--n-range", "bogus"]) == 2


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ringlab", "list", "nilpotents", "Z(8)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert [line.split("\t")[0] for line in proc.stdout.strip().splitlines()] == [
        "#0",
        "#2",
        "#4",
        "#6",
    ]
