import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import shogi_frieze
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


NOT_UTF8 = b"period: 1 0\ngrid:\n\xff^\n"


@pytest.mark.parametrize("command", ["ncc", "classify", "control", "render"])
def test_file_not_utf8_exits_2(tmp_path, capsys, command):
    f = tmp_path / "bad.pattern"
    f.write_bytes(NOT_UTF8)
    code, _, err = run(capsys, command, str(f))
    assert code == 2 and "bad.pattern" in err and "utf-8" in err
    assert "internal error" not in err


def test_fixture_dir_file_not_utf8_exits_2(tmp_path, capsys):
    for f in FIXTURE_DIR.glob("*.pattern"):
        (tmp_path / f.name).write_bytes(f.read_bytes())
    (tmp_path / "p2.pattern").write_bytes(NOT_UTF8)
    code, _, err = run(capsys, "table", str(tmp_path))
    assert code == 2 and "p2.pattern" in err and "utf-8" in err
    assert "internal error" not in err


def test_control_output(tmp_path, capsys):
    f = tmp_path / "lance.pattern"
    f.write_text("period: 1 0\ngrid:\nL^\n", encoding="utf-8")
    code, out, _ = run(capsys, "control", str(f))
    assert code == 0
    assert "free (0,0)+(0,1)" in out


def test_control_prints_each_long_ride_as_one_segment_line(tmp_path, capsys):
    # each sideways ride of the rook passes every other class of its line
    # before its own piece blocks it: one line each, not 9 999 999
    f = tmp_path / "rook.pattern"
    f.write_text("period: 10000000 0\ngrid:\nR^\n", encoding="utf-8")
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "control", str(f))
    assert time.perf_counter() - t0 < 0.1
    assert code == 0
    assert out.splitlines() == ["segment (0,0)+(-1,0)*9999999",
                                "segment (0,0)+(1,0)*9999999",
                                "free (0,0)+(0,-1)",
                                "free (0,0)+(0,1)"]


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


@pytest.mark.parametrize("source,periods", [
    ("p11g", "100000000"),
    ("period: 1000000000000 0\ngrid:\nK^ R^\n", "2"),
], ids=["many-periods", "long-t"])
def test_render_refuses_a_huge_picture(tmp_path, source, periods):
    # Either picture would span about 10^8 or 10^12 cells; it is refused
    # at once, with exit 2 and a message, whatever the format.
    if source == "p11g":
        f = FIXTURE_DIR / f"{source}.pattern"
    else:
        f = tmp_path / "long.pattern"
        f.write_text(source, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(shogi_frieze.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))
    for fmt in ("ascii", "svg"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "shogi_frieze.cli", "render", str(f),
             "--periods", periods, "--format", fmt],
            capture_output=True, text=True, timeout=60, env=env)
        assert time.perf_counter() - start < 10, fmt
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert "too large" in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr


def test_search_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "search", "--group", "p2mm", "--target",
                       "x0000000", "--max-pieces", "2", "--max-period", "2",
                       "--box", "2x2", "--both-orientations", "--limit", "1",
                       "--out", str(tmp_path))
    assert code == 0
    assert out.strip() == "found=1"
    assert (tmp_path / "report.tsv").exists()
    assert (tmp_path / "p2mm_000.pattern").exists()


def test_search_cli_limit_below_one_exits_2(capsys):
    code, out, err = run(capsys, "search", "--group", "p2mm", "--target",
                         "x0000000", "--max-pieces", "2", "--max-period",
                         "2", "--box", "2x2", "--both-orientations",
                         "--limit", "0")
    assert code == 2 and out == ""
    assert "--limit" in err and "Traceback" not in err


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


def _under_a_file(tmp_path):
    """A path that cannot be written: its parent is a regular file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    return blocker / "out"


@pytest.mark.parametrize("argv", [
    ("render", str(FIXTURE_DIR / "p2.pattern"), "--format", "svg"),
    ("table",),
])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(_under_a_file(tmp_path)))
    assert code == 2 and out == ""
    assert err.startswith("cannot write ") and "Traceback" not in err


def test_search_unwritable_out_exits_2_before_the_scan(tmp_path, capsys,
                                                       monkeypatch):
    from shogi_frieze import cli

    def scan(*args, **kwargs):
        raise AssertionError("the scan ran before --out was checked")

    monkeypatch.setattr(cli, "find_crystal", scan)
    code, out, err = run(capsys, "search", "--group", "p2mm", "--target",
                         "x0000000", "--max-pieces", "2", "--max-period", "2",
                         "--box", "2x2", "--out",
                         str(_under_a_file(tmp_path)))
    assert code == 2 and out == ""
    assert err.startswith("cannot write ") and "Traceback" not in err


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


def _two_p2_fixtures(tmp_path):
    """The bundled crystals with p11g's file replaced by a copy of p2's."""
    for f in FIXTURE_DIR.glob("*.pattern"):
        (tmp_path / f.name).write_bytes(f.read_bytes())
    (tmp_path / "p11g.pattern").write_bytes(
        (FIXTURE_DIR / "p2.pattern").read_bytes())
    return str(tmp_path)


@pytest.mark.parametrize("command", [("table",), ("fragility", "--fixtures")])
def test_fixture_dir_with_two_files_of_one_group_exits_2(tmp_path, capsys,
                                                         command):
    path = _two_p2_fixtures(tmp_path)
    code, out, err = run(capsys, *command, path)
    assert (code, out, err) == (2, "", f"{path}: two fixtures classify "
                                       "to p2\n")


_SEARCH = ("search", "--group", "p1", "--max-pieces", "1", "--max-period",
           "1")


@pytest.mark.parametrize("argv, message", [
    (("fragility", "--substitute", "bogus"),
     "unknown substitution 'bogus'; options: knight=chess-knight, "
     "lance=reverse-chariot, silver=sideways-silver"),
    (_SEARCH + ("--target", "xxq", "--box", "2x2"),
     "target must be 8 chars of x (fail) / o (satisfy)"),
    (_SEARCH + ("--target", "xxxxxxxx", "--box", "2y2"), "bad box '2y2'"),
    (("render", str(FIXTURE_DIR / "p2.pattern"), "--periods", "0"),
     "periods must be at least 1"),
], ids=["substitute", "target", "box", "periods"])
def test_bad_flag_exits_2_with_its_message(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message + "\n")


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


def test_import_loads_no_network_modules():
    # modules new to sys.modules after the import, so that whatever a site
    # .pth file loads at start-up does not count
    code = ("import sys; before = set(sys.modules); "
            "import shogi_frieze.cli; "
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(shogi_frieze.__file__).parent.parent),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "shogi_frieze.cli" in loaded
    network = [m for m in loaded
               if m in ("urllib.request", "http.client", "ssl", "socket")
               or m == "email" or m.startswith("email.")]
    assert network == []


_USAGE = ("usage: shogi-frieze [-h]\n"
          "                    {classify,ncc,control,table,render,search,"
          "fragility} ...\n")

# (argv, exit code, stdout, stderr) of argparse's own exits, with the help
# formatted for 80 columns
ARGPARSE_EXITS = [
    ((), 2, "", _USAGE + "shogi-frieze: error: the following arguments are "
     "required: command\n"),
    (("bogus",), 2, "", _USAGE + "shogi-frieze: error: argument command: "
     "invalid choice: 'bogus' (choose from 'classify', 'ncc', 'control', "
     "'table', 'render', 'search', 'fragility')\n"),
    (("--bogus",), 2, "", _USAGE + "shogi-frieze: error: the following "
     "arguments are required: command\n"),
    (("-h",), 0, _USAGE +
     "\n"
     "Analyze periodic shogi patterns: control conditions, frieze "
     "classification,\n"
     "search.\n"
     "\n"
     "positional arguments:\n"
     "  {classify,ncc,control,table,render,search,fragility}\n"
     "    classify            frieze group and witness isometries\n"
     "    ncc                 neighborhood control verdict\n"
     "    control             control classes, long segments and free lines\n"
     "    table               7x8 verdict table from fixture crystals\n"
     "    render              ascii or svg diagram\n"
     "    search              exhaustive bounded crystal search\n"
     "    fragility           table cells changed by a moveset substitution\n"
     "\n"
     "options:\n"
     "  -h, --help            show this help message and exit\n", ""),
    (("ncc", "-h"), 0,
     "usage: shogi-frieze ncc [-h] file\n"
     "\n"
     "positional arguments:\n"
     "  file\n"
     "\n"
     "options:\n"
     "  -h, --help  show this help message and exit\n", ""),
    (("ncc",), 2, "", "usage: shogi-frieze ncc [-h] file\n"
     "shogi-frieze ncc: error: the following arguments are required: file\n"),
    (("ncc", "FILE", "--bogus"), 2, "",
     _USAGE + "shogi-frieze: error: unrecognized arguments: --bogus\n"),
    (("ncc", "FILE", "extra", "--bogus"), 2, "",
     _USAGE + "shogi-frieze: error: unrecognized arguments: extra --bogus\n"),
    (("render", "FILE", "--format", "png"), 2, "",
     "usage: shogi-frieze render [-h] [--format {ascii,svg}] "
     "[--layers LAYERS]\n"
     "                           [--periods PERIODS] [--out OUT]\n"
     "                           file\n"
     "shogi-frieze render: error: argument --format: invalid choice: 'png' "
     "(choose from 'ascii', 'svg')\n"),
    (("search", "--group", "p1", "--target", "xxxxxxxx", "--max-pieces", "2",
      "--max-period", "2"), 2, "",
     "usage: shogi-frieze search [-h] --group GROUP --target TARGET "
     "--max-pieces\n"
     "                           MAX_PIECES --max-period MAX_PERIOD "
     "--box BOX\n"
     "                           [--decor] [--both-orientations] "
     "[--limit LIMIT]\n"
     "                           [--out OUT]\n"
     "shogi-frieze search: error: the following arguments are required: "
     "--box\n"),
]


@pytest.mark.parametrize("argv, code, out, err", ARGPARSE_EXITS,
                         ids=[" ".join(case[0]) or "no-arguments"
                              for case in ARGPARSE_EXITS])
def test_argparse_exits_unchanged(argv, code, out, err, monkeypatch, capsys):
    from shogi_frieze.cli import build_parser
    monkeypatch.setenv("COLUMNS", "80")
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ("ncc", "FILE", "--oracle"),
    ("render", "FILE", "--format", "svg", "--layers", "pieces,control",
     "--periods", "3", "--out", "OUT"),
    ("search", "--group", "p2mm", "--target", "x0000000", "--max-pieces", "2",
     "--max-period", "2", "--box", "2x2", "--decor", "--both-orientations",
     "--limit", "1", "--out", "OUT"),
    ("fragility", "--substitute", "lance=reverse-chariot",
     "--substitute", "knight=chess-knight"),
    ("table",),
    ("ncc", "--", "-FILE"),
])
def test_one_pass_parse_matches_parse_args(argv):
    # `command` only names the subparser in the top-level parser's
    # messages; no command reads it
    from shogi_frieze.cli import _parse, build_parser
    expected = vars(build_parser().parse_args(list(argv)))
    del expected["command"]
    assert vars(_parse(list(argv))) == expected
