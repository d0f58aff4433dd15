import xml.etree.ElementTree as ET

from shogi_frieze.cli import main
from conftest import FIXTURE_DIR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_fixture(capsys):
    code, out, _ = run(capsys, "classify", str(FIXTURE_DIR / "p2mm.pattern"))
    assert code == 0
    assert out.splitlines()[0] == "group=p2mm"
    # witnesses follow: h first, then v, g, r
    kinds = [line.split()[0] for line in out.splitlines()[1:]]
    assert kinds == sorted(kinds, key="hvgr".index)


def test_ncc_king_row(tmp_path, capsys):
    f = tmp_path / "kings.pattern"
    f.write_text("period: 3 0\ngrid:\nK^ .. ..\n", encoding="utf-8")
    code, out, _ = run(capsys, "ncc", str(f))
    assert code == 0 and out.splitlines()[0] == "verdict=Complete"


def test_ncc_verdict_formats(tmp_path, capsys):
    f = tmp_path / "p.pattern"
    f.write_text("period: 1 0\ngrid:\nPv\nP^\n", encoding="utf-8")
    code, out, _ = run(capsys, "ncc", str(f))
    assert code == 0 and out.startswith("verdict=NearlyComplete:Outside")
    f.write_text("period: 1 0\ngrid:\nN^\n", encoding="utf-8")
    code, out, _ = run(capsys, "ncc", str(f))
    assert code == 0 and out.startswith("verdict=Fails@(")


def test_ncc_oracle_flag(capsys):
    code, out, _ = run(capsys, "ncc", str(FIXTURE_DIR / "p2.pattern"),
                       "--oracle")
    assert code == 0
    assert out.splitlines()[1] == "oracle=agree"


def test_malformed_file_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.pattern"
    f.write_text("period: 1 0\ngrid:\nQ^\n", encoding="utf-8")
    code, _, err = run(capsys, "ncc", str(f))
    assert code == 2 and err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/zzz.pattern")
    assert code == 2 and err


def test_control_output(tmp_path, capsys):
    f = tmp_path / "lance.pattern"
    f.write_text("period: 1 0\ngrid:\nL^\n", encoding="utf-8")
    code, out, _ = run(capsys, "control", str(f))
    assert code == 0
    assert "free (0,0)+(0,1)" in out


def test_table_staircase_and_determinism(capsys):
    code, out1, _ = run(capsys, "table", str(FIXTURE_DIR))
    assert code == 0
    code, out2, _ = run(capsys, "table", str(FIXTURE_DIR))
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0].startswith("group\tknight")
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["p2mm", "p2", "p1m1", "p11m", "p2mg",
                                    "p1", "p11g"]
    for i, r in enumerate(rows):
        marks = ["x" if v == "fail" else "o" for v in r[1:]]
        assert "".join(marks) == "x" * (i + 1) + "o" * (7 - i)


def test_table_requires_seven(tmp_path, capsys):
    for name in ["p2mm", "p2", "p1m1", "p11m", "p2mg", "p1"]:
        (tmp_path / f"{name}.pattern").write_text(
            (FIXTURE_DIR / f"{name}.pattern").read_text("utf-8"),
            encoding="utf-8")
    code, _, err = run(capsys, "table", str(tmp_path))
    assert code == 2 and "7" in err


def test_render_ascii_control_marks(tmp_path, capsys):
    f = tmp_path / "king.pattern"
    f.write_text("period: 9 0\ngrid:\n"
                 + " ".join(["K^"] + [".."] * 8) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "render", str(f), "--layers", "pieces,control")
    assert code == 0
    assert out.count("*") == 8  # the eight squares around the king


def test_render_periods(capsys, tmp_path):
    f = tmp_path / "king.pattern"
    f.write_text("period: 3 0\ngrid:\nK^ .. ..\n", encoding="utf-8")
    code, out, _ = run(capsys, "render", str(f), "--periods", "3")
    assert code == 0
    assert out.count("K^") >= 3


def test_render_svg_wellformed_and_deterministic(capsys):
    args = ("render", str(FIXTURE_DIR / "p2mm.pattern"), "--format", "svg",
            "--layers", "pieces,partition,control")
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    ET.fromstring(out1)


def test_render_invalid_layer(capsys, tmp_path):
    f = tmp_path / "king.pattern"
    f.write_text("period: 3 0\ngrid:\nK^ .. ..\n", encoding="utf-8")
    code, _, err = run(capsys, "render", str(f), "--layers", "bogus")
    assert code == 2 and err


def test_search_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "search", "--group", "p2mm", "--target",
                       "x0000000", "--max-pieces", "2", "--max-period", "2",
                       "--box", "2x2", "--both-orientations", "--limit", "1",
                       "--out", str(tmp_path))
    assert code == 0
    assert out.strip() == "found=1"
    assert (tmp_path / "report.tsv").exists()
    assert (tmp_path / "p2mm_000.pattern").exists()


def test_search_cli_contradictory_bounds(capsys):
    code, out, _ = run(capsys, "search", "--group", "p11g", "--target",
                       "xxxxxxxo", "--max-pieces", "1", "--max-period", "1",
                       "--box", "1x1")
    assert code == 0 and out.strip() == "found=0"


def test_search_cli_bad_flags(capsys):
    code, _, err = run(capsys, "search", "--group", "p9", "--target",
                       "x0000000", "--max-pieces", "1", "--max-period", "1",
                       "--box", "1x1")
    assert code == 2 and "p9" in err


def test_fragility_cli(capsys):
    code, out, _ = run(capsys, "fragility", "--fixtures", str(FIXTURE_DIR),
                       "--substitute", "lance=reverse-chariot")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("changed=")
    assert int(lines[-1].split("=")[1]) > 0


def test_fragility_cli_identity(capsys):
    code, out, _ = run(capsys, "fragility", "--fixtures", str(FIXTURE_DIR))
    assert code == 0 and out.strip() == "changed=0"


def test_parser_built_once_and_calls_share_no_state(capsys):
    from shogi_frieze.cli import build_parser
    assert build_parser() is build_parser()
    both = ("fragility", "--fixtures", str(FIXTURE_DIR),
            "--substitute", "lance=reverse-chariot",
            "--substitute", "knight=chess-knight")
    lance = ("fragility", "--fixtures", str(FIXTURE_DIR),
             "--substitute", "lance=reverse-chariot")
    first = run(capsys, *both)
    classify = run(capsys, "classify", str(FIXTURE_DIR / "p11g.pattern"))
    alone = run(capsys, *lance)
    none = run(capsys, "fragility", "--fixtures", str(FIXTURE_DIR))
    again = run(capsys, *both)
    assert first[0] == classify[0] == alone[0] == none[0] == 0
    assert classify[1].splitlines()[0] == "group=p11g"
    assert again == first
    # one --substitute after two: the earlier list must not carry over
    assert alone[1] != first[1]
    assert none[1].strip() == "changed=0"


def test_classify_vertical_translation(tmp_path, capsys):
    f = tmp_path / "v1.pattern"
    f.write_text("period: 0 1\ngrid:\nK^\n", encoding="utf-8")
    assert run(capsys, "classify", str(f)) == (0, "group=p11m\nv x=0\n", "")
    f.write_text("period: 0 2\ngrid:\nKv\nK^\n", encoding="utf-8")
    assert run(capsys, "classify", str(f))[1].splitlines() == [
        "group=p2mm", "h y=0.5", "h y=1.5", "v x=0", "r center=(0,0.5)",
        "r center=(0,1.5)"]
    # K^ at (0,0) and (1,1): a glide with axis x = 0.5 and shift 1
    f.write_text("period: 0 2\ngrid:\n.. K^\nK^ ..\n", encoding="utf-8")
    assert run(capsys, "classify", str(f))[1].splitlines() == [
        "group=p11g", "g x=0.5 shift=1"]


def test_internal_error_with_empty_message_names_its_type(monkeypatch,
                                                          capsys):
    from shogi_frieze import cli

    def fail(p):
        raise MemoryError()

    monkeypatch.setattr(cli, "detect_symmetries", fail)
    code, out, err = run(capsys, "classify", str(FIXTURE_DIR / "p2.pattern"))
    assert code == 1 and out == ""
    assert "MemoryError" in err
