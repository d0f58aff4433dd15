import random

from shogi_frieze import (BISHOP, GOLD, KING, KNIGHT, LANCE, PAWN, ROOK,
                          RegionClass, Verdict, control_of_pattern,
                          make_pattern, neighborhood, ncc_status, oracle,
                          partition_neighborhood)
from shogi_frieze import control
from shogi_frieze.control import (_LISTED_MAX, FreeLine, KernelGeometry,
                                  NccStatus, _free_length, _move_control,
                                  _occupied_band, _path, _steps_to)
from shogi_frieze.geometry import UNIT_DIRS, reduce_cell
from shogi_frieze.pattern import PatternError
from shogi_frieze.search import SearchBounds
from conftest import DOWN, UP, enumerate_forms, piece, random_pattern


# --- rides ------------------------------------------------------------------

def test_ray_blocked_by_ally():
    # the ride lands on the pawn after passing two classes; the pawn faces
    # the lance's way, so the lance controls what it passes and not it
    p = make_pattern([piece((0, 0), kind=LANCE), piece((0, 3), kind=PAWN)],
                     (10, 0))
    assert _move_control(p.t, p.cells(), (0, 0), (0, 1)) == ((0, 3), 2)
    ctrl = control_of_pattern(p)
    assert ctrl.contains((0, 1)) and ctrl.contains((0, 2))
    assert not ctrl.contains((0, 3))


def test_ray_captures_enemy_inclusively():
    p = make_pattern([piece((0, 0), kind=LANCE),
                      piece((0, 3), DOWN, kind=PAWN)], (10, 0))
    assert _move_control(p.t, p.cells(), (0, 0), (0, 1)) == ((0, 3), 2)
    ctrl = control_of_pattern(p)
    assert all(ctrl.contains((0, y)) for y in (1, 2, 3))


def test_ray_wraps_to_own_copy_and_free_vertical():
    p = make_pattern([piece((0, 0), kind=ROOK)], (4, 0))
    cells = p.cells()
    assert _move_control(p.t, cells, (0, 0), (1, 0)) == ((0, 0), 3)
    assert _move_control(p.t, cells, (0, 0), (0, 1)) == (None, None)
    ctrl = control_of_pattern(p)
    assert {(1, 0), (2, 0), (3, 0)} <= ctrl.listed
    assert not ctrl.contains((0, 0))  # the rook's own copy is its ally
    assert FreeLine((0, 0), (0, 1)) in ctrl.free_lines
    assert ctrl.contains((0, 7)) and ctrl.contains((0, -9))
    assert not ctrl.contains((1, 7))


# --- neighborhood and partition --------------------------------------------

def test_neighborhood_single_king():
    p = make_pattern([piece((0, 0))], (9, 0))
    assert len(neighborhood(p)) == 8


def test_neighborhood_solid_row():
    p = make_pattern([piece((0, 0), kind=PAWN)], (1, 0))
    assert neighborhood(p) == {(0, -1), (0, 0), (0, 1)}


def test_neighborhood_2x2_block():
    p = make_pattern([piece(c) for c in
                      [(0, 0), (1, 0), (0, 1), (1, 1)]], (9, 0))
    assert len(neighborhood(p)) == 16


def test_partition_ring_has_inside():
    cells = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
    p = make_pattern([piece(c) for c in cells], (9, 0))
    part = partition_neighborhood(p)
    assert part[(1, 1)] is RegionClass.INSIDE
    assert part[(0, 0)] is RegionClass.BASE
    assert part[(3, 1)] is RegionClass.OUTSIDE


def test_partition_solid_row():
    p = make_pattern([piece((0, 0), kind=PAWN)], (1, 0))
    part = partition_neighborhood(p)
    assert part == {(0, 0): RegionClass.BASE, (0, 1): RegionClass.OUTSIDE,
                    (0, -1): RegionClass.OUTSIDE}


def test_partition_isolated_king():
    p = make_pattern([piece((0, 0))], (9, 0))
    part = partition_neighborhood(p)
    assert len(part) == 8
    assert set(part.values()) == {RegionClass.OUTSIDE}


def test_partition_winding_strip_is_outside():
    # Two sliders on a diagonal period leave a one-cell-wide empty corridor
    # that winds around the cylinder: finite class count, infinite strip.
    p = make_pattern([piece((0, 1), kind=GOLD), piece((1, -1), kind=ROOK)],
                     (1, 1))
    part = partition_neighborhood(p)
    assert part[reduce_cell((0, 0), p.t)] is RegionClass.OUTSIDE


# --- control ----------------------------------------------------------------

def test_control_single_gold():
    p = make_pattern([piece((0, 0), kind=GOLD)], (9, 0))
    ctrl = control_of_pattern(p)
    expected = {reduce_cell(c, (9, 0)) for c in
                [(0, 1), (1, 1), (-1, 1), (1, 0), (-1, 0), (0, -1)]}
    assert ctrl.classes == expected
    assert not ctrl.free_lines


def test_control_single_knight():
    p = make_pattern([piece((0, 0), kind=KNIGHT)], (9, 0))
    expected = {reduce_cell(c, (9, 0)) for c in [(-1, 2), (1, 2)]}
    assert control_of_pattern(p).classes == expected


def test_control_solid_lance_row():
    p = make_pattern([piece((0, 0), kind=LANCE)], (1, 0))
    ctrl = control_of_pattern(p)
    assert len(ctrl.free_lines) == 1
    assert ctrl.contains((0, 1)) and ctrl.contains((0, 7))
    assert not ctrl.contains((0, 0)) and not ctrl.contains((0, -1))


def test_control_excludes_ally_step_targets():
    p = make_pattern([piece((0, 0)), piece((0, 1))], (9, 0))
    ctrl = control_of_pattern(p)
    assert (0, 1) not in ctrl.classes and (0, 0) not in ctrl.classes


def test_control_includes_enemy_step_targets():
    p = make_pattern([piece((0, 0)), piece((0, 1), DOWN)], (9, 0))
    ctrl = control_of_pattern(p)
    assert (0, 1) in ctrl.classes and (0, 0) in ctrl.classes


# --- verdicts ---------------------------------------------------------------

def test_spaced_kings_complete():
    p = make_pattern([piece((0, 0))], (3, 0))
    st = ncc_status(p)
    assert st.verdict is Verdict.COMPLETE and st.satisfies


def test_solid_knight_row_fails_empty_intersection():
    # At t = (3, 0) the lone knight's whole neighborhood is one region,
    # outside: leaving all of it uncontrolled fails, not nearly complete.
    for t in ((1, 0), (3, 0)):
        p = make_pattern([piece((0, 0), kind=KNIGHT)], t)
        st = ncc_status(p)
        assert st.verdict is Verdict.FAILS, t
        assert st.uncontrolled == neighborhood(p)  # nothing controlled in N
        assert st.witness in st.uncontrolled
        board = oracle.replicate(p, oracle.sufficient_copies(p))
        assert oracle.brute_ncc(board) == st, t


def test_solid_pawn_row_fails_mixed_uncontrolled():
    p = make_pattern([piece((0, 0), kind=PAWN)], (1, 0))
    st = ncc_status(p)
    assert st.verdict is Verdict.FAILS
    assert st.uncontrolled == {(0, 0), (0, -1)}  # base plus bottom outside


def test_facing_pawn_rows_nearly_outside():
    p = make_pattern([piece((0, 0), UP, PAWN), piece((0, 1), DOWN, PAWN)],
                     (1, 0))
    st = ncc_status(p)
    assert st.verdict is Verdict.NEARLY_COMPLETE
    assert st.uncontrolled_class is RegionClass.OUTSIDE


def test_back_to_back_pawn_rows_nearly_base():
    p = make_pattern([piece((0, 0), DOWN, PAWN), piece((0, 1), UP, PAWN)],
                     (1, 0))
    st = ncc_status(p)
    assert st.verdict is Verdict.NEARLY_COMPLETE
    assert st.uncontrolled_class is RegionClass.BASE


def _rule_table(g, part):
    """The status of every mask of ``g``, by the verdict rule written out
    on the regions of ``part``: nothing uncontrolled is complete, exactly
    one nonempty region other than the whole neighborhood nearly
    complete, anything else fails with the least class as witness."""
    regions = {}
    for c, r in part.items():
        regions.setdefault(r, set()).add(c)
    table = []
    for mask in range(g.every + 1):
        classes = frozenset(c for c, bit in g.bits.items() if mask & bit)
        region = next((r for r, cs in regions.items() if cs == classes),
                      None)
        if not classes:
            st = NccStatus(Verdict.COMPLETE)
        elif region is not None and classes != set(part):
            st = NccStatus(Verdict.NEARLY_COMPLETE, region, None, classes)
        else:
            st = NccStatus(Verdict.FAILS, None, min(classes), classes)
        table.append(st)
    return table


def test_verdict_rule_exhaustive_on_small_spaces():
    # Every geometry of three small spaces (decorations can keep a longer
    # period), judged on every mask, against the rule written out on
    # ``partition_neighborhood``.  The bits follow the partition's key
    # order, which the statuses' ``uncontrolled`` sets keep.
    patterns = {}
    for bounds in (SearchBounds(2, (2, 2), 2),
                   SearchBounds(2, (2, 2), 2, allow_decorations=True),
                   SearchBounds(3, (3, 2), 2)):
        for form in enumerate_forms(bounds):
            try:
                p = form.instantiate(KING)
            except PatternError:
                continue
            patterns.setdefault((p.t, p.cells()), p)
    # the lone knight at t = (3, 0): one piece, so base is empty, and its
    # whole neighborhood is one region (outside), which fails
    knight = make_pattern([piece((0, 0), kind=KNIGHT)], (3, 0))
    patterns[(knight.t, knight.cells())] = knight
    assert len(patterns) > 100
    for (t, cells), p in patterns.items():
        g = KernelGeometry(t, cells)
        part = partition_neighborhood(p)
        assert list(g.bits) == list(part), (t, cells)
        for mask, st in enumerate(_rule_table(g, part)):
            assert g.verdict(mask) is st.verdict, (t, cells, mask)
            assert g.status(mask) == st, (t, cells, mask)
    g = KernelGeometry(knight.t, knight.cells())
    assert g.base == 0 and set(partition_neighborhood(knight).values()) \
        == {RegionClass.OUTSIDE}
    assert g.verdict(g.every) is Verdict.FAILS
    # an empty motif is the one geometry whose base is all of it
    g = KernelGeometry((3, 0), ())
    assert g.base == g.every == 0
    assert g.verdict(0) is Verdict.COMPLETE
    assert g.status(0) == NccStatus(Verdict.COMPLETE)


def _reference_reach(g, cell, move, ride, move_control):
    """What a move of the piece on ``cell`` reaches, by ``reduce_cell``,
    ``move_control`` and ``_steps_to`` alone: a step's target, or the
    class a ride lands on and every neighborhood class it meets up to its
    stop (anywhere on its line when free)."""
    if not ride:
        target = (cell[0] + move[0], cell[1] + move[1])
        return g.bits.get(reduce_cell(target, g.t), 0)
    cls, passed = move_control(g.t, g.cells, cell, move)
    mask = g.bits.get(cls, 0)
    for c, bit in g.bits.items():
        k = _steps_to(c, cell, move, g.t)
        if k is not None and (passed is None or k <= passed):
            mask |= bit
    return mask


def test_reach_matches_a_reference_mask(monkeypatch):
    # Every move of every piece of every geometry of three small spaces,
    # and hand cases at the edges of the walk: ``mask`` on the move's
    # empty-board path (``_path`` on the geometry's ``band``, the occupied
    # band widened by |tx| + |ty|) against a mask built from
    # ``_move_control`` and ``_steps_to``.  A ride whose bound
    # (``_free_length`` on that band) is at most ``_LISTED_MAX`` has a
    # listed path, and its mask asks nothing of ``_move_control``; a longer
    # one has none, and its mask asks ``_ride`` with the pieces, which asks
    # ``_move_control`` once.
    move_control = control._move_control
    calls = []
    monkeypatch.setattr(control, "_move_control",
                        lambda *args: calls.append(args)
                        or move_control(*args))
    patterns = {}
    for bounds in (SearchBounds(2, (2, 2), 2),
                   SearchBounds(2, (2, 2), 2, allow_decorations=True),
                   SearchBounds(3, (3, 2), 2)):
        for form in enumerate_forms(bounds):
            try:
                p = form.instantiate(KING)
            except PatternError:
                continue
            patterns.setdefault((p.t, p.cells()), p)
    assert len(patterns) > 100
    hand = [
        # a lone knight: its own class is no neighborhood class, yet a
        # ride parallel to t stops there
        ([piece((0, 0), kind=KNIGHT)], (3, 0)),
        # rides parallel to t at the edge of the walk: 32 classes, then 33
        ([piece((0, 0), kind=ROOK)], (32, 0)),
        ([piece((0, 0), kind=ROOK)], (33, 0)),
        ([piece((0, 0), kind=ROOK), piece((0, 1))], (0, 33)),
        # nearly parallel: the ride east from (0, 0) meets the king after
        # 5 steps, but its bound is 46
        ([piece((0, 0), kind=ROOK), piece((5, 0))], (40, 1)),
        # a ride round 99 classes, tested class by class
        ([piece((0, 0), kind=ROOK)], (100, 0)),
    ]
    for pieces, t in hand:
        p = make_pattern(pieces, t)
        patterns[(p.t, p.cells())] = p
    long_rides = 0
    for (t, cells), p in patterns.items():
        g = KernelGeometry(t, cells)
        qs = [x * t[1] - y * t[0] for x, y in cells]
        s = abs(t[0]) + abs(t[1])
        assert g.band == (min(qs) - s, max(qs) + s)
        for cell in cells:
            for d in UNIT_DIRS + ((1, 2), (-1, -2)):
                path = _path(t, g.band, cell, d, False)
                calls.clear()
                assert g.mask(cell, d, path) \
                    == _reference_reach(g, cell, d, False, move_control)
                assert not calls
                if d not in UNIT_DIRS:
                    continue
                path = _path(t, g.band, cell, d, True)
                calls.clear()
                got = g.mask(cell, d, path)
                long = _free_length(cell, d, t, *g.band) > _LISTED_MAX
                long_rides += long
                assert (path is None) == long, (t, cell, d)
                assert len(calls) == long, (t, cell, d)
                assert got == _reference_reach(g, cell, d, True,
                                               move_control), (t, cell, d)
    # both rides along t = (33, 0), both pieces' rides along (0, 33), both
    # pieces' horizontal rides at (40, 1) and both rides along (100, 0)
    assert long_rides == 2 + 4 + 4 + 2


def test_control_asks_move_control_only_for_long_rides(monkeypatch):
    # ``control_of_pattern`` walks a ride to its stop (``_ride``) when its
    # bound (``_free_length`` on the occupied band) is at most
    # ``_LISTED_MAX``, and asks ``_move_control`` once for a longer one:
    # seeded patterns of every standard kind, and rides along, nearly
    # along and across long periods.
    move_control = control._move_control
    calls = []
    monkeypatch.setattr(control, "_move_control",
                        lambda *args: calls.append(args)
                        or move_control(*args))
    rng = random.Random(29)
    patterns = [random_pattern(rng, tmax=6) for _ in range(200)]
    for t in ((32, 0), (33, 0), (34, 0), (0, 100), (40, 1), (1, 40),
              (40, 40), (40, -40), (41, 39)):
        patterns.append(make_pattern([piece((0, 0), kind=ROOK),
                                      piece((0, 1), DOWN, kind=LANCE),
                                      piece((1, 0), kind=BISHOP)], t))
    long_rides = 0
    for p in patterns:
        band = _occupied_band(p.cells(), p.t)
        long = sum(_free_length(x.cell, d, p.t, *band) > _LISTED_MAX
                   for x in p.pieces
                   for d in x.kind.oriented(x.orientation).rides)
        calls.clear()
        control_of_pattern(p)
        assert len(calls) == long, p
        long_rides += long
    # five of the seeded patterns' rides, nearly parallel to t, and 15 of
    # the motifs' rides: none at t = (32, 0), where a ride round its line
    # has the bound 32
    assert long_rides == 5 + 15


# --- invariants on random patterns ------------------------------------------

def test_partition_law_random():
    rng = random.Random(23)
    for _ in range(80):
        p = random_pattern(rng)
        part = partition_neighborhood(p)
        assert set(part) == set(neighborhood(p))


def test_single_orientation_base_uncontrolled_random():
    rng = random.Random(29)
    for _ in range(80):
        p = random_pattern(rng, orientations=(UP,))
        part = partition_neighborhood(p)
        base = {c for c, r in part.items() if r is RegionClass.BASE}
        ctrl = control_of_pattern(p)
        assert not any(ctrl.contains(c) for c in base)
        if base:
            assert ncc_status(p).verdict is not Verdict.COMPLETE


def test_outputs_invariant_under_reanchoring():
    rng = random.Random(31)
    for _ in range(40):
        p = random_pattern(rng)
        moved = make_pattern(
            [piece((x.cell[0] + p.t[0], x.cell[1] + p.t[1]),
                   x.orientation, x.kind) for x in p.pieces], p.t)
        assert moved == p  # reduction maps +t anchoring back


def test_king_theorem_small():
    rng = random.Random(37)
    count = 0
    while count < 50:
        p = random_pattern(rng, kinds=(KING,), tmax=5)
        cells = [x.cell for x in p.pieces]
        ok = True
        for i, a in enumerate(cells):
            for j, b in enumerate(cells):
                for k in range(-12, 13):
                    if i == j and k == 0:
                        continue
                    bx, by = b[0] + k * p.t[0], b[1] + k * p.t[1]
                    if max(abs(a[0] - bx), abs(a[1] - by)) < 2:
                        ok = False
        if not ok:
            continue
        count += 1
        st = ncc_status(p)
        assert st.satisfies and st.verdict is Verdict.COMPLETE
