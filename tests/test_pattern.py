import copy
import pickle
import random
from dataclasses import replace

import pytest

from shogi_frieze import (KING, LANCE, PAWN, ROOK, STANDARD_KINDS,
                          InconsistentMotifError, ParseError, PatternError,
                          PeriodicPattern, PieceKind, PlacedPiece,
                          canonicalize, classify_frieze, detect_symmetries,
                          dual, make_pattern, moveset, ncc_status, oracle,
                          parse, serialize)
from shogi_frieze.cli import main as cli_main
from shogi_frieze.geometry import canonical_sign, reduce_cell
from shogi_frieze.pattern import form_of
from shogi_frieze.pieces import reverse_chariot_moveset
from shogi_frieze.render import RenderSpec, render
from conftest import DOWN, UP, FIXTURE_DIR, piece, random_pattern


def test_reduce_examples():
    assert reduce_cell((5, 0), (2, 0)) == (1, 0)
    assert reduce_cell((3, 3), (1, 1)) == (0, 0)
    assert reduce_cell((0, 0), (7, -3)) == (0, 0)


def test_canonicalize_minimal_period():
    p = make_pattern([piece((0, 0), kind=PAWN), piece((1, 0), kind=PAWN)],
                     (2, 0))
    assert p.t == (1, 0)
    assert [x.cell for x in p.pieces] == [(0, 0)]
    # occupancy matches the unreduced description: every cell of row 0
    occupied = p.class_map()
    for x in range(-6, 7):
        assert reduce_cell((x, 0), p.t) in occupied
        assert reduce_cell((x, 1), p.t) not in occupied


def test_canonicalize_reduction_only():
    p = make_pattern([piece((5, 0))], (2, 0))
    assert p.t == (2, 0)
    assert p.pieces[0].cell == (1, 0)


def test_canonicalize_reduced_and_unreduced_pieces():
    # the piece already on its class representative is kept as it is, the
    # other is moved onto its representative: the value is as before
    kept = piece((0, 0), kind=LANCE)
    moved = piece((4, 1), DOWN, decoration=(1, 0))
    p = canonicalize(PeriodicPattern((moved, kept), (-3, 0)))
    assert p == PeriodicPattern(
        (kept, piece((1, 1), DOWN, decoration=(1, 0))), (3, 0))
    assert p.pieces[0] is kept


def test_canonicalize_idempotent():
    p = make_pattern([piece((0, 0)), piece((1, 2), DOWN)], (3, 1))
    assert canonicalize(p) == p
    # p is marked and returned at once; its unmarked copy is worked out
    assert canonicalize(PeriodicPattern(p.pieces, p.t)) == p


def _marked_patterns():
    """Patterns that ``canonicalize`` returned: one from ``parse``, one
    from ``make_pattern``."""
    return [parse((FIXTURE_DIR / "p11g.pattern").read_text("utf-8")),
            make_pattern([piece((4, 1), decoration=(1, 1)),
                          piece((-1, 0), DOWN, PAWN)], (3, 0))]


def test_canonicalize_returns_a_marked_pattern_unchanged():
    for q in _marked_patterns():
        assert canonicalize(q) is q
        # the mark is in neither equality, hash nor repr
        unmarked = PeriodicPattern(q.pieces, q.t)
        assert canonicalize(unmarked) is not unmarked
        assert unmarked == q and hash(unmarked) == hash(q)
        assert repr(unmarked) == repr(q)
        for twin in (pickle.loads(pickle.dumps(q)), copy.copy(q),
                     copy.deepcopy(q)):
            assert twin == q and hash(twin) == hash(q)
            assert canonicalize(twin) == q


def test_unmarked_patterns_come_out_canonical():
    # Each pattern is not canonical, and is given twice to every step that
    # canonicalizes, so that a mark set on it by one call (rather than on
    # the pattern canonicalize returns) would show in a later one.  The
    # expected patterns are written out, not computed.
    q = make_pattern([piece((0, 0)), piece((1, 0), DOWN, PAWN)], (3, 0))
    cases = [
        (replace(q, t=(-3, 0)), q.pieces, (3, 0)),
        (PeriodicPattern((piece((7, 1)), piece((-4, 0), kind=PAWN)), (3, 0)),
         (piece((1, 1)), piece((2, 0), kind=PAWN)), (3, 0)),
        (PeriodicPattern((piece((0, 0), kind=ROOK), piece((0, 1), DOWN)),
                         (-2, 1)),
         (piece((0, 0), kind=ROOK), piece((2, 0), DOWN)), (2, -1)),
        (PeriodicPattern((piece((0, 0), decoration=(0, 1)),
                          piece((1, 0), kind=PAWN),
                          piece((2, 0), decoration=(0, 1)),
                          piece((3, 0), kind=PAWN)), (4, 0)),
         (piece((0, 0), decoration=(0, 1)), piece((1, 0), kind=PAWN)),
         (2, 0)),
    ]
    spec = RenderSpec("svg", ("pieces", "partition", "control"), 2)
    for p, pieces, t in cases:
        want = PeriodicPattern(pieces, t)
        assert p != want
        for _ in range(2):
            got = canonicalize(p)
            assert (got.pieces, got.t) == (pieces, t)
            assert render(p, spec) == render(want, spec)
            assert detect_symmetries(p) == detect_symmetries(want)
            assert serialize(p) == serialize(want)


def test_canonicalize_preserves_occupancy():
    rng = random.Random(13)
    for _ in range(40):
        while True:
            t = (rng.randint(-4, 4), rng.randint(-4, 4))
            if t != (0, 0):
                break
        raw = {}
        for _ in range(rng.randint(1, 4)):
            raw[reduce_cell((rng.randint(-3, 3), rng.randint(-3, 3)), t)] = None
        cells = list(raw)
        p = make_pattern([piece(c) for c in cells], t)
        occupied = p.class_map()
        for x in range(-7, 8):
            for y in range(-7, 8):
                direct = any(
                    reduce_cell((x - c[0], y - c[1]), t) == (0, 0)
                    for c in cells)
                assert (reduce_cell((x, y), p.t) in occupied) == direct


def test_canonicalize_errors():
    with pytest.raises(PatternError):
        make_pattern([], (1, 0))
    with pytest.raises(PatternError):
        make_pattern([piece((0, 0))], (0, 0))
    with pytest.raises(InconsistentMotifError):
        make_pattern([piece((0, 0), UP), piece((2, 0), DOWN)], (2, 0))


def test_dual_examples():
    p = make_pattern([piece((0, 0)), piece((1, 1))], (3, 0))
    d = dual(p)
    assert all(x.orientation is DOWN for x in d.pieces)
    assert dual(d) == p
    assert [x.cell for x in d.pieces] == [x.cell for x in p.pieces]


def test_dual_preserves_frieze_class(crystal_fixtures):
    for group, p in crystal_fixtures.items():
        assert classify_frieze(dual(p)) is group


def test_dual_decoration_rotates():
    p = make_pattern([piece((0, 0), decoration=(1, 1))], (3, 0))
    assert dual(p).pieces[0].decoration == (-1, -1)


def test_parse_minimal():
    p = parse("period: 3 0\ngrid:\nK^ .. ..\n")
    assert p.t == (3, 0)
    assert p.pieces[0].cell == (0, 0) and p.pieces[0].kind == KING


def test_parse_unknown_letter():
    with pytest.raises(ParseError):
        parse("period: 3 0\ngrid:\nQ^ .. ..\n")


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("grid:\nK^\n")  # missing period
    with pytest.raises(ParseError):
        parse("period: 0 0\ngrid:\nK^\n")
    with pytest.raises(ParseError):
        parse("period: 2 0\ngrid:\nK?\n")


_GRID = "grid:\nK^ .. ..\n"


@pytest.mark.parametrize("text, message", [
    ("period: 3\n" + _GRID, "line 1: bad period"),
    ("period: a 0\n" + _GRID, "line 1: bad period"),
    ("period: 3 0\norigin: 1\n" + _GRID, "line 2: bad origin"),
    ("period: 3 0\norigin: 1 x\n" + _GRID, "line 2: bad origin"),
    ("period: 3 0\nkind: C fairy steps=\n" + _GRID,
     "line 2: bad kind header"),
    ("period: 3 0\nkind: CD fairy steps= rides=(0,1)\n" + _GRID,
     "line 2: kind letter must be one char"),
    ("period: 3 0\nkind: K fairy steps= rides=(0,1)\n" + _GRID,
     "line 2: letter 'K' taken"),
    ("period: 3 0\nkind: C fairy steps=0,1 rides=\n" + _GRID,
     "line 2: bad displacement '0,1'"),
    ("period: 3 0\nkind: C fairy steps=(0,x) rides=\n" + _GRID,
     "line 2: bad displacement '(0,x)'"),
    ("period: 3 0\nkind: C fairy steps= rides=(0,2)\n" + _GRID,
     "line 2: ride direction (0, 2) is not a unit vector"),
    ("period: 3 0\n" + _GRID + "decor: 0 0\n", "line 4: bad decor line"),
    ("period: 3 0\n" + _GRID + "decor: 0 0 up\n", "line 4: bad decor line"),
    ("period: 3 0\n" + _GRID + "decor: a 0 ne\n", "line 4: bad decor line"),
    ("period: 3 0\nbogus\n" + _GRID, "line 2: unrecognized line 'bogus'"),
    ("period: 3 0\n", "missing grid"),
    ("period: 3 0\n" + _GRID + "K? .. ..\n", "line 4: bad cell token 'K?'"),
    ("period: 3 0\n\ngrid:\n.. Q^ ..\n",
     "line 4: unknown kind letter 'Q'"),
    ("period: 3 0\n" + _GRID + "decor: 0 0 ne\n# note\ndecor: 1 0 ne\n",
     "line 6: decor on empty cell (1, 0)"),
    ("# a zero period\nperiod: 0 0\n" + _GRID, "line 2: zero period"),
])
def test_parse_error_names_its_line(text, message, tmp_path, capsys):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message
    path = tmp_path / "bad.pattern"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["ncc", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}: {message}\n")


def test_parse_skips_comments_and_blank_lines():
    text = (FIXTURE_DIR / "p11g.pattern").read_text("utf-8")
    lines = text.splitlines()
    noisy = ["# a comment", ""] + [x for line in lines
                                   for x in (line, "  # after it", "   ")]
    assert parse("\n".join(noisy)) == parse(text)


def test_parse_origin_and_decor():
    text = ("period: 4 0\norigin: 0 -1\ngrid:\n"
            ".. K^ .. ..\nKv .. .. ..\ndecor: 1 0 ne\n")
    p = parse(text)
    cells = {x.cell: x for x in p.pieces}
    assert cells[(0, -1)].orientation is DOWN
    assert cells[(1, 0)].decoration == (1, 1)


def test_parse_decor_on_empty_cell():
    with pytest.raises(ParseError):
        parse("period: 3 0\ngrid:\nK^ .. ..\ndecor: 1 0 ne\n")
    # the grid cell is empty though its class holds a king
    with pytest.raises(ParseError, match=r"decor on empty cell \(2, 0\)"):
        parse("period: 2 0\ngrid:\nK^ .. ..\ndecor: 2 0 ne\n")


def test_parse_custom_kind_header():
    text = ("period: 3 0\nkind: C rc-test steps= rides=(0,-1);(0,1)\n"
            "grid:\nC^ .. ..\n")
    p = parse(text)
    assert p.pieces[0].kind == PieceKind("rc-test", reverse_chariot_moveset())
    # serialize emits the kind header again and round-trips
    out = serialize(p)
    assert "kind: A rc-test steps= rides=(0,-1);(0,1)" in out
    assert parse(out) == p


def _fairy_file(steps):
    return (f"period: 3 0\nkind: F fairy-a steps={steps} rides=\n"
            "grid:\n.. Kv ..\nF^ .. ..\n")


FAIRY_STEPS = {"vertical": "(0,1);(0,-1)", "horizontal": "(1,0);(-1,0)"}


def _moveset_of(steps):
    """The moveset a steps= field names, written out for the oracle."""
    return moveset(steps=[tuple(map(int, v.strip("()").split(",")))
                          for v in steps.split(";")])


@pytest.mark.parametrize("order", [("vertical", "horizontal"),
                                   ("horizontal", "vertical")])
def test_one_name_two_movesets_in_one_process(order):
    patterns = {name: parse(_fairy_file(FAIRY_STEPS[name])) for name in order}
    a, b = (patterns[name] for name in order)
    kind_a, kind_b = a.pieces[0].kind, b.pieces[0].kind
    assert kind_a.name == kind_b.name == "fairy-a" and kind_a != kind_b
    for p, steps in ((a, order[0]), (b, order[1])):
        board = oracle.replicate(p, oracle.sufficient_copies(p))
        own = {kind_a: _moveset_of(FAIRY_STEPS[steps])}
        st, ost = ncc_status(p), oracle.brute_ncc(board, own)
        assert (st.verdict, st.uncontrolled_class) == \
               (ost.verdict, ost.uncontrolled_class)
        assert st.uncontrolled == {reduce_cell(c, p.t)
                                   for c in ost.uncontrolled}
    assert ncc_status(a).uncontrolled != ncc_status(b).uncontrolled


@pytest.mark.parametrize("header, message", [
    ("kind: F king steps=(0,1) rides=", "standard kind"),
    ("kind: F fairy-a steps=(0,1) rides=\nkind: H fairy-a steps=(1,0) rides=",
     "declared twice"),
])
def test_parse_rejects_kind_headers(header, message, tmp_path, capsys):
    text = f"period: 3 0\n{header}\ngrid:\nF^ .. ..\n"
    with pytest.raises(ParseError, match=message):
        parse(text)
    path = tmp_path / "bad.pattern"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["ncc", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_parse_accepts_identical_redeclaration():
    text = ("period: 3 0\nkind: F fairy-a steps=(0,1) rides=\n"
            "kind: H fairy-a steps=(0,1) rides=\ngrid:\nF^ H^ ..\n")
    p = parse(text)
    assert p.pieces[0].kind == p.pieces[1].kind


def test_serialize_custom_kind_reads_moveset_off_pieces():
    kind = PieceKind("fairy-b", moveset(steps=[(2, 1)], rides=[(1, -1)]))
    p = make_pattern([piece((0, 0), kind=kind), piece((1, 1), DOWN)], (3, 0))
    text = serialize(p)
    assert "kind: A fairy-b steps=(2,1) rides=(1,-1)" in text
    assert parse(text) == p
    assert serialize(parse(text)) == text


def test_serialize_rejects_two_kinds_with_one_name():
    one = PieceKind("fairy-a", moveset(steps=[(0, 1)]))
    two = PieceKind("fairy-a", moveset(steps=[(1, 0)]))
    p = make_pattern([piece((0, 0), kind=one), piece((1, 0), kind=two)],
                     (3, 0))
    with pytest.raises(PatternError, match="two kinds named"):
        serialize(p)
    # a standard name stands for its standard moveset in a file
    substituted = PieceKind("lance", reverse_chariot_moveset())
    with pytest.raises(PatternError, match="two kinds named 'lance'"):
        serialize(make_pattern([piece((0, 0), kind=substituted)], (3, 0)))


def test_roundtrip_fixtures():
    for path in sorted(FIXTURE_DIR.glob("*.pattern")):
        text = path.read_text("utf-8")
        p = parse(text)
        assert serialize(p) == text  # committed files are canonical bytes
        assert parse(serialize(p)) == p


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(60):
        p = random_pattern(rng)
        assert parse(serialize(p)) == p


_FAIRIES = (PieceKind("fairy-a", moveset(steps=[(1, 2)], rides=[(0, -1)])),
            PieceKind("fairy-b", moveset(steps=[(-1, 0), (2, -1)])))


def test_roundtrip_random_decorated_and_custom():
    rng = random.Random(21)
    decorated = custom = 0
    for _ in range(3000):
        p = random_pattern(rng, kinds=STANDARD_KINDS + _FAIRIES, decor=0.5)
        text = serialize(p)
        assert parse(text) == p
        assert serialize(parse(text)) == text
        decorated += "\ndecor: " in text
        custom += "\nkind: " in text
    assert decorated > 2000 and custom > 1000, (decorated, custom)


_TOKEN_KINDS = {"K": KING, "P": PAWN, "R": ROOK, "L": LANCE}
_DECOR_BY_NAME = {"n": (0, 1), "e": (1, 0), "sw": (-1, -1), "nw": (-1, 1)}


def _random_file(rng):
    """A pattern file, and the pieces it places built as ``make_pattern``'s
    input: on the raw grid cells, in grid order, decorated by ``replace``.
    Its motif may repeat along a divisor of t (a shorter period) or along t
    (two grid cells in one class, alike or not)."""
    u = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1), (1, 2)))
    sign, k = rng.choice((1, -1)), rng.randint(1, 3)
    t = (sign * k * u[0], sign * k * u[1])
    origin = (rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9))
    w, h = rng.randint(1, 6), rng.randint(1, 4)
    looks = {}
    for _ in range(rng.randint(1, 4)):
        looks[rng.randrange(w), rng.randrange(h)] = (
            rng.choice("KPRL") + rng.choice("^v"),
            rng.choice((None, None) + tuple(_DECOR_BY_NAME)))
    if rng.random() < 0.6:
        step = rng.choice((u, t))
        for (dx, dy), look in list(looks.items()):
            for m in range(-3, 4):
                c = (dx + m * step[0], dy + m * step[1])
                if 0 <= c[0] < w and 0 <= c[1] < h:
                    looks.setdefault(c, look)
    grid = [(dx, dy) for dy in range(h - 1, -1, -1) for dx in range(w)]
    decors = [(c, looks[c][1]) for c in grid if c in looks and looks[c][1]]
    if decors and rng.random() < 0.2:  # a second decor line: the last wins
        decors.append((rng.choice(decors)[0], rng.choice(list(_DECOR_BY_NAME))))
    lines = [f"period: {t[0]} {t[1]}", f"origin: {origin[0]} {origin[1]}",
             "grid:"]
    lines += [" ".join(looks.get((dx, dy), ("..",))[0] for dx in range(w))
              for dy in range(h - 1, -1, -1)]
    lines += [f"decor: {origin[0] + dx} {origin[1] + dy} {name}"
              for (dx, dy), name in decors]
    pieces = {}
    for dx, dy in grid:
        if (dx, dy) in looks:
            token = looks[dx, dy][0]
            cell = (origin[0] + dx, origin[1] + dy)
            pieces[cell] = PlacedPiece(cell, _TOKEN_KINDS[token[0]],
                                       UP if token[1] == "^" else DOWN)
    for (dx, dy), name in decors:
        cell = (origin[0] + dx, origin[1] + dy)
        pieces[cell] = replace(pieces[cell], decoration=_DECOR_BY_NAME[name])
    return "\n".join(lines) + "\n", list(pieces.values()), t


def _pattern_or_message(build):
    try:
        return build()
    except InconsistentMotifError as exc:
        return str(exc)


def test_parse_matches_make_pattern_on_the_grid_cells():
    rng = random.Random(2011)
    seen = {"negative t": 0, "vertical t": 0, "shorter period": 0,
            "decorated": 0, "merged": 0, "conflict": 0}
    for _ in range(600):
        text, pieces, t = _random_file(rng)
        got = _pattern_or_message(lambda: parse(text))
        assert got == _pattern_or_message(lambda: make_pattern(pieces, t))
        seen["negative t"] += t != canonical_sign(t)
        seen["vertical t"] += t[0] == 0
        if isinstance(got, str):
            seen["conflict"] += 1
            continue
        seen["shorter period"] += got.t != canonical_sign(t)
        seen["decorated"] += any(x.decoration for x in got.pieces)
        seen["merged"] += len({reduce_cell(x.cell, canonical_sign(t))
                               for x in pieces}) < len(pieces)
    assert min(seen.values()) >= 20, seen


def test_form_instantiate():
    p = make_pattern([piece((0, 0), UP), piece((0, 1), DOWN)], (2, 0))
    f = form_of(p)
    q = f.instantiate(PAWN)
    assert all(x.kind == PAWN for x in q.pieces)
    assert [x.cell for x in q.pieces] == [x.cell for x in p.pieces]
