import csv
import io
import json

import pytest

from conftest import fixed_dim
from coxex import build_root_system, parse_descriptor
from coxex.cli import main
from coxex.elements import element_from_word
from coxex.signedperm import from_root_perm


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_info_text(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "--type", "A", "--rank", "2")
    assert code == 0
    assert "positive_roots: 3" in out
    assert "order: 6" in out


def test_group_info_json_and_cache(capsys, tmp_path):
    path = tmp_path / "b3.json"
    code, out, err = run_cli(capsys, "group", "info", "--type", "B3",
                             "--format", "json", "--out", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 48 and doc["positive_roots"] == 9
    assert err == f"root system written to {path}\n"
    saved = json.loads(path.read_text())
    assert saved["schema"] == "coxex.rootsystem/1"


def test_group_info_h3(capsys):
    code, out, _ = run_cli(capsys, "group", "info", "--type", "H3")
    assert code == 0
    assert "positive_roots: 15" in out
    assert "order: 120" in out


def test_group_info_bad_descriptor(capsys):
    code, _, _ = run_cli(capsys, "group", "info", "--type", "B", "--rank", "1")
    assert code != 0


def test_excess_involution_is_zero(capsys):
    code, out, _ = run_cli(capsys, "excess", "--type", "B", "--rank", "2",
                           "--element", "(-1)(-2)")
    assert code == 0
    doc = json.loads(out)
    assert doc["excess"] == 0 and doc["reflection_excess"] == 0


def test_excess_a4(capsys):
    code, out, _ = run_cli(capsys, "excess", "--type", "A", "--rank", "4",
                           "--element", "(+2 +3 +5)")
    assert code == 0
    doc = json.loads(out)
    assert doc["excess"] == 0 and doc["reflection_excess"] == 0
    assert doc["length"] == 4


def test_excess_d12_with_parabolic(capsys):
    code, out, _ = run_cli(capsys, "excess", "--type", "D12",
                           "--element", "(+2 +4 +6 +8 +10 -12 +11 +9 +7 +5 -3)",
                           "--parabolic", "2 3 4 5 6 7 8 9 10 11 12")
    assert code == 0
    doc = json.loads(out)
    assert doc["excess"] == 46
    assert doc["parabolic"][0]["e_J"] == 60


def test_excess_csv_columns(capsys):
    code, out, _ = run_cli(capsys, "excess", "--type", "B3",
                           "--element", "(+1 +2 +3)", "--format", "csv",
                           "--parabolic", "maximal")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["descriptor", "element", "length", "reflection_length",
                       "excess", "reflection_excess", "J", "e_J", "E_J"]
    assert rows[1][0] == "B3"
    # one row per maximal parabolic containing the element
    assert all(r[6] for r in rows[1:])


def test_excess_rejects_non_abd(capsys):
    code, _, _ = run_cli(capsys, "excess", "--type", "H3", "--element", "(+1 +2)")
    assert code != 0


def test_excess_membership_failure(capsys):
    code, _, _ = run_cli(capsys, "excess", "--type", "A", "--rank", "4",
                         "--element", "(+1 +5)", "--parabolic", "1 2 3")
    assert code != 0


def test_excess_parabolic_out_of_range():
    with pytest.raises(SystemExit,
                       match=r"^error: generator subset \[7\] out of range for rank 3$"):
        main(["excess", "--type", "B3", "--element", "(+1 -2)", "--parabolic", "7"])


def test_verify_parabolic_out_of_range():
    with pytest.raises(SystemExit,
                       match=r"^error: generator subset \[7\] out of range for rank 3$"):
        main(["verify", "--type", "B3", "--parabolic", "7"])


def _word_of(text):
    return [int(r) - 1 for r in text[1:].split(".r")] if text != "1" else []


def test_excess_word_e6(capsys):
    code, out, _ = run_cli(capsys, "excess", "--type", "E6",
                           "--word", "1 2 3 4 5 6 3 4", "--parabolic", "maximal")
    assert code == 0
    doc = json.loads(out)
    rs = build_root_system(parse_descriptor("E6"))
    w = element_from_word(rs, [0, 1, 2, 3, 4, 5, 2, 3])
    assert doc["descriptor"] == "E6" and doc["length"] == w.length()
    assert element_from_word(rs, _word_of(doc["element"])) == w
    assert doc["reflection_length"] == rs.rank - fixed_dim(w)
    assert doc["witnesses"]
    for x, y in doc["witnesses"]:
        assert (element_from_word(rs, _word_of(x))
                * element_from_word(rs, _word_of(y))) == w


def test_excess_word_matches_element_in_type_b(capsys):
    _, by_word, _ = run_cli(capsys, "excess", "--type", "B3", "--word", "3 2 1")
    rs = build_root_system(parse_descriptor("B3"))
    text = from_root_perm(element_from_word(rs, [2, 1, 0])).format()
    _, by_cycles, _ = run_cli(capsys, "excess", "--type", "B3", "--element", text)
    assert json.loads(by_word) == json.loads(by_cycles)


def test_excess_word_out_of_range():
    with pytest.raises(SystemExit, match=r"^error: generators \[7\] out of range 1\.\.6$"):
        main(["excess", "--type", "E6", "--word", "1 7"])
    with pytest.raises(SystemExit, match=r"^error: generators \[0\] out of range 1\.\.3$"):
        main(["excess", "--type", "B3", "--word", "0 1"])
    with pytest.raises(SystemExit, match=r"^error: cannot parse word"):
        main(["excess", "--type", "B3", "--word", "1 x"])


def test_excess_word_excludes_element(capsys):
    code, _, err = run_cli(capsys, "excess", "--type", "B3", "--word", "1",
                           "--element", "(+1 -2)")
    assert code != 0 and "not allowed with" in err
    code, _, _ = run_cli(capsys, "excess", "--type", "B3")
    assert code != 0


def test_excess_parse_error(capsys):
    code, _, _ = run_cli(capsys, "excess", "--type", "A", "--rank", "4",
                         "--element", "(+1 +1)")
    assert code != 0


def test_verify_exit_zero(capsys, tmp_path):
    path = tmp_path / "suite.json"
    code, _, err = run_cli(capsys, "verify", "--type", "I2(5)",
                           "--theorem", "parabolic-excess",
                           "--theorem", "nw-subset-niw", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["payload"]["failures_total"] == 0
    assert "parabolic-excess" in err


def test_verify_multiple_descriptors_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "A2,I2(5)",
                           "--theorem", "zero-excess-classes", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    descriptors = {r[1] for r in rows[1:]}
    assert descriptors == {"A2", "I2(5)"}


def test_verify_guard_exceeded(capsys):
    code, _, err = run_cli(capsys, "verify", "--type", "B3",
                           "--theorem", "parabolic-excess", "--guard", "10")
    assert code != 0


def test_verify_guard_env(capsys, monkeypatch):
    monkeypatch.setenv("COXEX_GUARD", "10")
    code, _, _ = run_cli(capsys, "verify", "--type", "B3",
                         "--theorem", "parabolic-excess")
    assert code != 0


def test_verify_unknown_theorem(capsys):
    code, _, _ = run_cli(capsys, "verify", "--type", "A2", "--theorem", "nope")
    assert code != 0


@pytest.mark.parametrize("argv", [
    ("excess", "--type", "B3", "--element", "(+1 -2)"),
    ("group", "info", "--type", "B3"),
    ("verify", "--type", "A2", "--theorem", "zero-excess-classes")])
def test_malformed_guard_env_is_one_error_line(monkeypatch, argv):
    monkeypatch.setenv("COXEX_GUARD", "abc")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == "error: COXEX_GUARD='abc' is not an integer"


@pytest.mark.parametrize("argv", [
    ("excess", "--type", "A3", "--word", "1 2"),
    ("group", "info", "--type", "B3"),
    ("verify", "--type", "A2", "--theorem", "zero-excess-classes")])
@pytest.mark.parametrize("guard", ["0", "-5"])
def test_guard_below_one_is_one_error_line(monkeypatch, argv, guard):
    # the same refusal from the option and from the environment
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--guard", guard])
    assert exc.value.code == "error: guard must be at least 1"
    monkeypatch.setenv("COXEX_GUARD", guard)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == "error: guard must be at least 1"


def test_repro_subcommand(capsys):
    code, out, _ = run_cli(capsys, "repro", "sym5-table")
    assert code == 0
    assert "ok: recomputed values match the golden data" in out
    code, out, _ = run_cli(capsys, "repro", "sym7-gap", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_repro_text_report_honours_out(capsys, tmp_path):
    path = tmp_path / "r.txt"
    code, out, _ = run_cli(capsys, "repro", "sym7-gap", "--out", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("example: sym7-gap\n")
    assert "ok: recomputed values match the golden data" in text


@pytest.mark.parametrize("argv", [
    ("group", "info", "--type", "A300"),
    ("group", "info", "--type", "I2(100000)"),
    ("group", "info", "--type", "A999999999999"),
    ("excess", "--type", "A300", "--word", "1 2"),
    ("excess", "--type", "B100", "--element", "(+1 -2)"),
    ("verify", "--type", "A2,A300")])
def test_builds_past_the_guard_are_one_error_line(argv):
    # A300 and I2(100000) once ran past 20 s, and A999999999999 ended in a
    # MemoryError traceback
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code.startswith("error: building the roots of ")
    assert exc.value.code.endswith("which exceeds guard 10000000")
    assert "\n" not in exc.value.code


@pytest.mark.parametrize("argv", [
    ("group", "info", "--type", "I2(112)"),
    ("excess", "--type", "I2(112)", "--word", "1 2"),
    ("verify", "--type", "I2(112)")])
def test_a_numbering_key_collision_is_one_error_line(argv):
    # from I2(112) on, two roots share a float numbering key; this once
    # ended in a RuntimeError traceback
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == ("error: two roots of I2(112) share a numbering key: "
                              "the H and I2 roots are still numbered by a float key")


def test_a_low_guard_keeps_the_structured_path_of_d10(capsys):
    # --guard 1000 bounds |I_w| here; the D10 build, cost 1333, is not refused
    assert main(["excess", "--type", "D10", "--element", "(+1 +2 +3)(-4 -5)(+6 -7 +8 -9)",
                 "--guard", "1000", "--parabolic", "maximal"]) == 0
    assert "error" not in capsys.readouterr().out
