"""Acceptance criteria, one test per criterion, each with its stated budget.

Every test appends a PASS line (with its runtime) to the terminal summary;
a failing criterion shows up as an ordinary pytest failure.
"""

import random
import time
import xml.etree.ElementTree as ET

from shogi_frieze import (BISHOP, GOLD, KING, KNIGHT, LANCE, PAWN, ROOK,
                          SILVER, STANDARD_KINDS, FriezeGroup, Isometry,
                          RegionClass, SearchBounds,
                          Verdict, apply, classify_frieze, dual, find_crystal,
                          find_duality, find_special_form, form_of,
                          fragility_check, generate_from_recipe,
                          make_pattern, ncc_status, ncc_vector, parse,
                          serialize)
from shogi_frieze import oracle
from shogi_frieze.cli import main as cli_main
from shogi_frieze.control import control_of_pattern, neighborhood, \
    partition_neighborhood
from shogi_frieze.geometry import reduce_cell
from shogi_frieze.pieces import (chess_knight_moveset, reverse_chariot_moveset,
                                 sideways_silver_moveset)
from shogi_frieze.search import (EXPECTED_TABLE, KIND_COLUMNS, ROW_ORDER,
                                 staircase_target)

import conftest
from conftest import (DOWN, UP, FIXTURE_DIR, has_horizontal_mirror_symmetry,
                      piece, random_pattern, rotated_dual)


def record(num, name, t0, budget):
    dt = time.time() - t0
    assert dt < budget, f"criterion {num} exceeded budget: {dt:.1f}s"
    conftest.ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {num:02d} {name}: PASS ({dt:.1f}s, budget {budget}s)")


def test_criterion_01_moveset_symmetry_partition():
    t0 = time.time()
    symmetric = {k for k in STANDARD_KINDS
                 if has_horizontal_mirror_symmetry(k.moveset)}
    assert symmetric == {KING, ROOK, BISHOP}
    record(1, "moveset symmetry partition", t0, 1)


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(0xACCE17)
    for _ in range(500):
        p = random_pattern(rng, max_pieces=6, span=4, tmax=5)
        copies = oracle.sufficient_copies(p)
        board = oracle.replicate(p, copies)
        win = oracle.window_cells(board)
        ctrl = control_of_pattern(p)
        nbhd = neighborhood(p)
        part = partition_neighborhood(p)
        periodic_ctrl = {c for c in win if ctrl.contains(reduce_cell(c, p.t))}
        periodic_nbhd = {c for c in win if reduce_cell(c, p.t) in nbhd}
        periodic_part = {c: part[reduce_cell(c, p.t)] for c in periodic_nbhd}
        assert periodic_ctrl == oracle.brute_control(board) & win
        assert periodic_nbhd == oracle.brute_neighborhood(board) & win
        assert periodic_part == {c: r for c, r in
                                 oracle.brute_partition(board).items()
                                 if c in win}
        st = ncc_status(p)
        ost = oracle.brute_ncc(board)
        ost2 = oracle.brute_ncc(oracle.replicate(p, copies + 2))
        assert st == ost == ost2
    record(2, "oracle equivalence (500 patterns)", t0, 120)


def _spaced_king_pattern(rng):
    while True:
        t = (rng.randint(-5, 5), rng.randint(-5, 5))
        if max(abs(t[0]), abs(t[1])) < 2:
            continue
        cells = set()
        for _ in range(rng.randint(1, 4)):
            cells.add(reduce_cell((rng.randint(-4, 4), rng.randint(-4, 4)), t))
        ok = True
        cl = sorted(cells)
        for i, a in enumerate(cl):
            for j, b in enumerate(cl):
                for k in range(-12, 13):
                    if i == j and k == 0:
                        continue
                    if max(abs(a[0] - b[0] - k * t[0]),
                           abs(a[1] - b[1] - k * t[1])) < 2:
                        ok = False
        if ok:
            return make_pattern([piece(c) for c in cl], t)


def test_criterion_03_king_theorem():
    t0 = time.time()
    rng = random.Random(0xACCE03)
    for _ in range(1000):
        p = _spaced_king_pattern(rng)
        st = ncc_status(p)
        assert st.satisfies
        assert st.verdict is Verdict.COMPLETE
    record(3, "king theorem (1000 patterns)", t0, 30)


def test_criterion_04_base_impossibility():
    t0 = time.time()
    rng = random.Random(0xACCE04)
    done = 0
    while done < 1000:
        p = random_pattern(rng, orientations=(rng.choice((UP, DOWN)),))
        part = partition_neighborhood(p)
        if RegionClass.BASE not in part.values():
            continue
        assert ncc_status(p).verdict is not Verdict.COMPLETE
        done += 1
    record(4, "base-neighborhood impossibility (1000 patterns)", t0, 30)


def test_criterion_05_correspondence_table(crystal_fixtures, capsys):
    t0 = time.time()
    assert {classify_frieze(p) for p in crystal_fixtures.values()} \
        == set(ROW_ORDER)
    for group in ROW_ORDER:
        vec = ncc_vector(form_of(crystal_fixtures[group]))
        assert {k: s.satisfies for k, s in vec.items()} \
            == EXPECTED_TABLE[group]
    code = cli_main(["table", str(FIXTURE_DIR)])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    for i, row in enumerate(rows):
        assert row[0] == ROW_ORDER[i].label
        marks = "".join("x" if v == "fail" else "o" for v in row[1:])
        assert marks == "x" * (i + 1) + "o" * (7 - i)
    record(5, "correspondence table (56 cells)", t0, 10)


def test_criterion_06_search_rediscovery():
    t0 = time.time()
    cases = [
        (FriezeGroup.P2MM, 0, SearchBounds(3, (3, 3), 3)),
        (FriezeGroup.P2, 1, SearchBounds(3, (3, 3), 3)),
        (FriezeGroup.P1M1, 2, SearchBounds(3, (3, 3), 3)),
    ]
    for group, row, bounds in cases:
        assert bounds.max_motif_pieces <= 8
        assert bounds.box <= (6, 6) and bounds.max_period <= 6
        reports = find_crystal(group, staircase_target(row), bounds, limit=1)
        assert reports, group
        rep = reports[0]
        assert classify_frieze(rep.pattern) is group
        fresh = ncc_vector(rep.form)
        assert {k: s.satisfies for k, s in fresh.items()} \
            == staircase_target(row)
    record(6, "search rediscovery p2mm/p2/p1m1", t0, 600)


def test_criterion_07_special_form():
    t0 = time.time()
    reports = find_special_form(SearchBounds(2, (2, 2), 2), limit=1)
    assert reports
    rep = reports[0]
    assert all(rep.statuses[k].satisfies for k in KIND_COLUMNS)
    base = frozenset(c for c, r in rep.partition.items()
                     if r is RegionClass.BASE)
    outside = frozenset(c for c, r in rep.partition.items()
                        if r is RegionClass.OUTSIDE)
    assert rep.statuses[KNIGHT].uncontrolled == base
    assert rep.statuses[PAWN].uncontrolled == outside
    assert rep.statuses[LANCE].uncontrolled == outside
    record(7, "special form (all 8 kinds)", t0, 600)


def test_criterion_08_duality():
    t0 = time.time()
    d = find_duality(SearchBounds(2, (2, 2), 2))
    assert d.gold_complete is not None and d.silver_nearly is not None
    assert ncc_vector(d.gold_complete, (GOLD,))[GOLD].verdict \
        is Verdict.COMPLETE
    assert ncc_vector(d.silver_nearly, (SILVER,))[SILVER].verdict \
        is Verdict.NEARLY_COMPLETE
    assert d.gold_rook is not None and d.silver_bishop is not None
    assert ncc_status(d.gold_rook).verdict is Verdict.COMPLETE
    assert ncc_status(d.silver_bishop).verdict is Verdict.NEARLY_COMPLETE
    assert {x.kind for x in d.gold_rook.pieces} == {GOLD, ROOK}
    assert {x.kind for x in d.silver_bishop.pieces} == {SILVER, BISHOP}
    record(8, "gold/silver and gold-rook/silver-bishop duality", t0, 600)


def test_criterion_09_fragility(crystal_fixtures):
    t0 = time.time()
    assert fragility_check(crystal_fixtures, {}) == []
    for kind, builder in [(LANCE, reverse_chariot_moveset),
                          (SILVER, sideways_silver_moveset),
                          (KNIGHT, chess_knight_moveset)]:
        changed = fragility_check(crystal_fixtures, {kind: builder()})
        assert changed, kind
    record(9, "fragility substitutions", t0, 60)


def test_criterion_10_symmetry_metamorphics():
    t0 = time.time()
    rng = random.Random(0xACCE10)
    for _ in range(500):
        p = random_pattern(rng, max_pieces=5, span=3, tmax=4)
        st = ncc_status(p)
        group = classify_frieze(p)

        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        moved = apply(Isometry((1, 1), shift), p)
        mst = ncc_status(moved)
        assert mst.verdict == st.verdict
        assert mst.uncontrolled_class == st.uncontrolled_class
        assert classify_frieze(moved) is group

        # dual followed by the 180-degree moveset rotation: same physics
        drot = ncc_status(rotated_dual(p))
        assert drot == st

        mirrored = apply(Isometry((-1, 1), (0, 0)), p)
        vst = ncc_status(mirrored)
        assert vst.verdict == st.verdict
        assert vst.uncontrolled_class == st.uncontrolled_class
        assert classify_frieze(mirrored) is group

        assert classify_frieze(dual(p)) is group
    record(10, "metamorphics (500 patterns)", t0, 60)


def test_criterion_11_recipe_round_trip():
    t0 = time.time()
    basic = [piece((0, 0)), piece((1, 1))]
    cases = {
        FriezeGroup.P1: dict(period=(4, 0)),
        FriezeGroup.P11G: dict(period=(4, 0), axis_y=-0.5),
        FriezeGroup.P1M1: dict(period=(6, 0), axis_x=1.5),
        FriezeGroup.P11M: dict(period=(4, 0), axis_y=-0.5),
        FriezeGroup.P2: dict(period=(4, 0), center=(-0.5, -0.5)),
        FriezeGroup.P2MG: dict(period=(8, 0), axis_x=1.5, axis_y=-0.5),
        FriezeGroup.P2MM: dict(period=(6, 0), axis_x=1.5, axis_y=-0.5),
    }
    # on a vertical period the mirror along t has a vertical axis (axis_x)
    # and the mirror across t a horizontal one (axis_y)
    vertical = {
        FriezeGroup.P1: dict(period=(0, 4)),
        FriezeGroup.P11G: dict(period=(0, 4), axis_x=-0.5),
        FriezeGroup.P1M1: dict(period=(0, 6), axis_y=1.5),
        FriezeGroup.P11M: dict(period=(0, 4), axis_x=-0.5),
        FriezeGroup.P2: dict(period=(0, 4), center=(-0.5, -0.5)),
        FriezeGroup.P2MG: dict(period=(0, 8), axis_x=-0.5, axis_y=1.5),
        FriezeGroup.P2MM: dict(period=(0, 6), axis_x=-0.5, axis_y=1.5),
    }
    for group, kwargs in [*cases.items(), *vertical.items()]:
        p = generate_from_recipe(basic, group, **kwargs)
        assert classify_frieze(p) is group, (group, kwargs)
    record(11, "recipe round trip (7 groups, both period directions)",
           t0, 5)


def test_criterion_12_determinism_and_formats(crystal_fixtures, capsys,
                                              tmp_path):
    t0 = time.time()
    for group, p in crystal_fixtures.items():
        text = (FIXTURE_DIR / f"{group.label}.pattern").read_text("utf-8")
        assert serialize(p) == text
        assert parse(serialize(p)) == p

    assert cli_main(["table", str(FIXTURE_DIR)]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(["table", str(FIXTURE_DIR)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2

    render_args = ["render", str(FIXTURE_DIR / "p2mg.pattern"), "--format",
                   "svg", "--layers", "pieces,partition,control",
                   "--periods", "2"]
    assert cli_main(render_args) == 0
    svg1 = capsys.readouterr().out
    assert cli_main(render_args) == 0
    svg2 = capsys.readouterr().out
    assert svg1 == svg2
    ET.fromstring(svg1)
    record(12, "determinism, round trips, svg", t0, 10)
