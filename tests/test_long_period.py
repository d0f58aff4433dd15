"""Cost independent of |t|, and the arithmetic paths that make it so.

Symmetry candidates come from piece pairs, period minimality from piece
pairs, and long rides stay arithmetic segments.  These tests time the
long-period paths, compare the piece-pair witnesses with a scan of every
listed parameter, check segment membership against the oracle, and check
invariance of groups and verdicts under re-anchoring, duals and mirrors.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from shogi_frieze import (BISHOP, KING, LANCE, ROOK, STANDARD_KINDS,
                          FriezeGroup, Isometry, IsometryKind, PatternError,
                          PlacedPiece, canonicalize, classify_frieze,
                          control_of_pattern, detect_symmetries, dual,
                          generate_from_recipe, make_pattern,
                          partition_neighborhood, ncc_status, oracle)
from shogi_frieze import control
from shogi_frieze.control import (Segment, _move_control, _occupied_band,
                                  _ride)
from shogi_frieze.geometry import UNIT_DIRS, cross, dot, reduce_cell
from shogi_frieze.symmetry import apply
from conftest import DOWN, UP, piece, rotated_dual

BIG = 10 ** 9

# name -> (pieces as (cell, kind, orientation), unit direction of t)
MOTIFS = {
    "king": ([((0, 0), KING, UP)], (1, 0)),
    "lance": ([((0, 0), LANCE, UP)], (1, 0)),
    "rook": ([((0, 0), ROOK, UP)], (1, 0)),
    "rook_vertical": ([((0, 0), ROOK, UP)], (0, 1)),
    "lance_vertical": ([((0, 0), LANCE, DOWN)], (0, 1)),
    "bishop_king_diagonal": ([((0, 0), BISHOP, UP), ((1, 0), KING, DOWN)],
                             (1, 1)),
    "bishop_king_antidiagonal": ([((0, 0), BISHOP, UP),
                                  ((1, 0), KING, DOWN)], (1, -1)),
}


def _motif(name, length):
    cells, (dx, dy) = MOTIFS[name]
    return make_pattern([PlacedPiece(c, k, o) for c, k, o in cells],
                        (dx * length, dy * length))


def _refuse_long_listing(monkeypatch):
    """Make listing a segment too long to list an error."""
    original = Segment.classes

    def guarded(self):
        assert self.length <= control._LISTED_MAX, "a long ride was listed"
        return original(self)
    monkeypatch.setattr(Segment, "classes", guarded)


def _timed(fn, p):
    t0 = time.perf_counter()
    out = fn(p)
    assert time.perf_counter() - t0 < 0.1, fn.__name__
    return out


@pytest.mark.parametrize("name", sorted(MOTIFS))
def test_long_period_costs_no_more_than_short(name, monkeypatch):
    big, small = _motif(name, BIG), _motif(name, 7)
    _refuse_long_listing(monkeypatch)
    assert _timed(classify_frieze, big) is classify_frieze(small)
    a, b = _timed(ncc_status, big), ncc_status(small)
    assert (a.verdict, a.uncontrolled_class) == \
           (b.verdict, b.uncontrolled_class)
    ctrl = _timed(control_of_pattern, big)
    assert "classes" not in vars(ctrl)


def test_nearly_parallel_ride_stays_a_segment(monkeypatch):
    # t = (BIG, 1): the rook's leftward ride passes BIG - 1 classes before
    # it captures the king, whose class holds (-BIG, 0)
    p = make_pattern([PlacedPiece((0, 0), ROOK, UP),
                      PlacedPiece((0, 1), KING, DOWN)], (BIG, 1))
    _refuse_long_listing(monkeypatch)
    _timed(classify_frieze, p)
    _timed(ncc_status, p)
    ctrl = _timed(control_of_pattern, p)
    assert [s.length for s in ctrl.segments] == [BIG - 1]
    assert ctrl.contains(reduce_cell((-5, 0), p.t))
    assert ctrl.contains(reduce_cell((1 - BIG, 0), p.t))


def test_long_rook_ride_is_a_segment():
    p = _motif("rook", BIG)
    ctrl = control_of_pattern(p)
    [seg, back] = ctrl.segments
    assert {seg.length, back.length} == {BIG - 1}
    assert ctrl.contains((1, 0)) and ctrl.contains((BIG - 1, 0))
    assert ctrl.contains((BIG // 2, 0))
    assert not ctrl.contains((0, 0)) and not ctrl.contains((1, 1))
    # the ride lands on the rook's own copy, its ally, after BIG - 1 classes
    assert _move_control(p.t, p.cells(), (0, 0), (1, 0)) == ((0, 0), BIG - 1)


def _kernel_matches_control_set(p):
    """``ncc_status``, the geometry's mask verdict on the pieces' own kinds,
    equals the oracle's set rule on the control set in every field."""
    st = _timed(ncc_status, p)
    ctrl, part = control_of_pattern(p), partition_neighborhood(p)
    assert st == oracle._verdict_from_parts(
        part, frozenset(c for c in part if not ctrl.contains(c)))
    return st


# A ride along t passes length - 1 classes, so the first of these lengths
# walks a ride of _LISTED_MAX - 1 classes and the third one of
# _LISTED_MAX + 1, which the kernel tests class by class instead.
_SHORT = (control._LISTED_MAX, control._LISTED_MAX + 1,
          control._LISTED_MAX + 2)
# The diagonal motifs' oracle boards are over 4 000 cells a side at these
# lengths (about 10 s each), so only the control set judges them.
_AXIS_MOTIFS = ("king", "lance", "rook", "rook_vertical", "lance_vertical")


@pytest.mark.parametrize("length", _SHORT + (BIG,))
@pytest.mark.parametrize("name", sorted(MOTIFS))
def test_kernel_long_rides_match_the_control_set(name, length, monkeypatch):
    p = _motif(name, length)
    _refuse_long_listing(monkeypatch)
    st = _kernel_matches_control_set(p)
    if length in _SHORT and name in _AXIS_MOTIFS:
        board = oracle.replicate(p, oracle.sufficient_copies(p))
        ost = oracle.brute_ncc(board)
        assert (st.verdict, st.uncontrolled_class) == \
               (ost.verdict, ost.uncontrolled_class)


def test_kernel_nearly_parallel_ride_matches_the_control_set(monkeypatch):
    p = make_pattern([PlacedPiece((0, 0), ROOK, UP),
                      PlacedPiece((0, 1), KING, DOWN)], (BIG, 1))
    _refuse_long_listing(monkeypatch)
    _kernel_matches_control_set(p)


def test_minimal_period_from_piece_pairs_at_long_period():
    half = BIG // 2
    p = make_pattern([piece((0, 0)), piece((half, 0)), piece((7, 1), DOWN),
                      piece((half + 7, 1), DOWN)], (BIG, 0))
    assert p.t == (half, 0) and len(p.pieces) == 2
    q = make_pattern([piece((0, 0)), piece((half, 0), DOWN)], (BIG, 0))
    assert q.t == (BIG, 0)
    third = make_pattern([piece((k * 4, k * 4)) for k in range(3)], (12, 12))
    assert third.t == (4, 4)
    # shifts by 1, 2 and 3 of 6 steps all hold; the least is the period
    step = 10 ** 8
    sixth = make_pattern([piece((k * step, 0)) for k in range(6)],
                         (6 * step, 0))
    assert sixth.t == (step, 0)


# ---------------------------------------------------------------------------
# Witnesses against a scan of every listed parameter

def _scan_witnesses(p):
    """Every isometry c -> S c + o that `classify` lists, found by scanning
    the offsets o two periods along t on the line that keeps the occupied
    band in place, each tested by mapping the whole pattern with `apply`."""
    t = p.t
    tt = dot(t, t)
    qs = [cross(c, t) for c in p.cells()]
    out = []
    for S in ((-1, -1), (1, -1), (-1, 1)):
        St = (S[0] * t[0], S[1] * t[1])
        if St not in (t, (-t[0], -t[1])):
            continue
        across_t = St != t and S != (-1, -1)
        # cross(S c + o) is cross(c) + cross(o) for a mirror across t and
        # -cross(c) + cross(o) otherwise
        target = 0 if across_t else min(qs) + max(qs)
        # two periods of the projection of o on t
        for along in range(0, 2 * tt):
            o0, r0 = divmod(along * t[0] + target * t[1], tt)
            o1, r1 = divmod(along * t[1] - target * t[0], tt)
            if r0 or r1:
                continue
            o = (o0, o1)
            iso = _as_isometry(S, o, along, tt, St == t)
            if iso is not None and apply(iso, p) == p:
                out.append(iso)
    order = [IsometryKind.REFLECT_H, IsometryKind.REFLECT_V,
             IsometryKind.GLIDE_H, IsometryKind.GLIDE_V,
             IsometryKind.ROTATE180]
    return sorted(out, key=lambda w: (order.index(w.kind), w.axis_x,
                                      w.axis_y, w.center, w.shift))


def _as_isometry(S, o, along, tt, along_t):
    if S == (-1, -1):
        return Isometry(S, o)
    if along_t and along not in (0, tt / 2):
        return None
    # a shift along the direction S fixes makes a glide, only along t
    shift = o[0] if S == (1, -1) else o[1]
    return Isometry(S, o) if along_t or not shift else None


def _random_pattern(rng, t, kinds=(KING, LANCE), with_decor=True):
    by_class = {}
    for _ in range(rng.randint(1, 5)):
        c = reduce_cell((rng.randint(-4, 4), rng.randint(-4, 4)), t)
        deco = (rng.choice(UNIT_DIRS)
                if with_decor and rng.random() < 0.2 else None)
        by_class[c] = PlacedPiece(c, rng.choice(kinds),
                                  rng.choice((UP, DOWN)), deco)
    return make_pattern(by_class.values(), t)


def _random_t(rng, tmax):
    while True:
        t = (rng.randint(-tmax, tmax), rng.randint(-tmax, tmax))
        if t != (0, 0):
            return t


def test_witnesses_match_scan_of_every_listed_parameter():
    rng = random.Random(71)
    groups = set()
    for i in range(400):
        # a quarter each: any t, horizontal or vertical t (mirrors), and a
        # recipe closure of one or two pieces (every group)
        t = _random_t(rng, 12)
        if i % 4 == 1:
            t = rng.choice(((t[0] or 1, 0), (0, t[1] or 1)))
        p = _random_pattern(rng, t)
        if i % 4 == 2:
            try:
                p = generate_from_recipe(
                    p.pieces[:2], rng.choice(list(FriezeGroup)),
                    (2 * rng.randint(1, 6), 0), axis_x=rng.randint(-2, 2) / 2,
                    axis_y=rng.randint(-2, 2) / 2,
                    center=(rng.randint(-2, 2) / 2, rng.randint(-2, 2) / 2))
            except PatternError:
                continue
        flags = detect_symmetries(p)
        assert list(flags.witnesses) == _scan_witnesses(p), p
        groups.add(classify_frieze(p))
    assert len(groups) == 7


# ---------------------------------------------------------------------------
# Rides against a walk, segment membership against the oracle

def _walk(p, origin, d, band):
    """The ride walked square by square: (passed classes, landing class),
    the landing class None for a free ride.  Off t's direction it is free
    once it drifts past ``band``, a band holding the occupied one;
    parallel to t, once it comes back to a class it passed."""
    t = p.t
    occupied = p.class_map()
    qlo, qhi = band
    qd = cross(d, t)
    passed, pos = [], origin
    while True:
        pos = (pos[0] + d[0], pos[1] + d[1])
        cls = reduce_cell(pos, t)
        if cls in occupied:
            return passed, cls
        q = cross(cls, t)
        if qd > 0 and q > qhi or qd < 0 and q < qlo or cls in passed:
            return passed, None
        passed.append(cls)


def test_ride_matches_a_walk():
    # rides from pieces and from empty squares, on the occupied band (as
    # the control set lists them) and on the band widened by |tx| + |ty|
    # (as the kernel masks them); a free ride's passed classes run until
    # its cross leaves the band.  Besides short random periods, t runs
    # along, or nearly along, a unit direction for 20 to 60 steps, so
    # that rides of more than _LISTED_MAX classes take the Segment path
    # (``_ride`` returns their number, the length of the segment).
    rng = random.Random(79)
    paths = {list: 0, int: 0}
    for i in range(240):
        t = _random_t(rng, 6)
        if i % 2:
            u = rng.choice(UNIT_DIRS)
            k = rng.randint(20, 60)
            t = (k * u[0] + rng.randint(-1, 1) * (i % 4 == 3),
                 k * u[1] + rng.randint(-1, 1) * (i % 4 == 3))
        p = _random_pattern(rng, t, STANDARD_KINDS, with_decor=False)
        t, cells = p.t, p.cells()
        qlo, qhi = _occupied_band(cells, t)
        s = abs(t[0]) + abs(t[1])
        for band in ((qlo, qhi), (qlo - s, qhi + s)):
            for x in p.pieces:
                empty = (x.cell[0] + rng.randint(-3, 3),
                         x.cell[1] + rng.randint(-3, 3))
                for origin in (x.cell, empty):
                    for d in UNIT_DIRS:
                        hit, passed = _ride(t, cells, set(cells), band,
                                            origin, d)
                        walked, landed = _walk(p, origin, d, band)
                        assert hit == landed, (p, origin, d, band)
                        paths[type(passed)] += 1
                        if type(passed) is int:
                            assert len(walked) > control._LISTED_MAX
                            passed = Segment(origin, d, passed, t).classes()
                        else:
                            assert len(walked) <= control._LISTED_MAX
                        assert list(passed) == walked, (p, origin, d, band)
    assert min(paths.values()) > 100, paths


def test_segment_contains_agrees_with_listing_and_oracle(monkeypatch):
    monkeypatch.setattr(control, "_LISTED_MAX", -1)  # keep every ride
    rng = random.Random(73)
    for _ in range(120):
        p = _random_pattern(rng, _random_t(rng, 5), STANDARD_KINDS,
                            with_decor=False)
        ctrl = control_of_pattern(p)
        assert ctrl.listed <= _step_targets(p)
        board = oracle.replicate(p, oracle.sufficient_copies(p))
        win = oracle.window_cells(board)
        got = {c for c in win if ctrl.contains(reduce_cell(c, p.t))}
        assert got == oracle.brute_control(board) & win
        classes = {reduce_cell(c, p.t) for c in win}
        for seg in ctrl.segments:
            listed = set(seg.classes())
            assert {c for c in classes if seg.contains(c)} == \
                   listed & classes
            assert all(seg.contains(c) for c in listed)


def _step_targets(p):
    """Step targets and piece classes: all a control set lists when no
    ride is short enough to list."""
    out = set()
    for x in p.pieces:
        m = x.kind.oriented(x.orientation)
        out.update(reduce_cell((x.cell[0] + s[0], x.cell[1] + s[1]), p.t)
                   for s in m.steps)
    out.update(x.cell for x in p.pieces)  # captures at the end of a ride
    return out


# ---------------------------------------------------------------------------
# Groups and verdicts under re-anchoring, duals and mirrors

@st.composite
def patterns(draw):
    t = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6))
             .filter(lambda v: v != (0, 0)))
    by_class = {}
    for _ in range(draw(st.integers(1, 5))):
        c = reduce_cell((draw(st.integers(-4, 4)), draw(st.integers(-4, 4))),
                        t)
        by_class[c] = PlacedPiece(
            c, draw(st.sampled_from(STANDARD_KINDS)),
            draw(st.sampled_from((UP, DOWN))),
            draw(st.one_of(st.none(), st.sampled_from(UNIT_DIRS))))
    return make_pattern(by_class.values(), t)


def _verdict(p):
    s = ncc_status(p)
    return s.verdict, s.uncontrolled_class


@settings(max_examples=150, deadline=None)
@given(patterns(), st.lists(st.integers(-3, 3), min_size=5, max_size=5),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_reanchored_pattern_keeps_group_and_verdict(p, ks, shift):
    t = p.t
    anchored = make_pattern(
        [PlacedPiece((x.cell[0] + k * t[0], x.cell[1] + k * t[1]), x.kind,
                     x.orientation, x.decoration)
         for x, k in zip(p.pieces, ks)], t)
    assert anchored == p
    moved = apply(Isometry((1, 1), shift), p)
    assert classify_frieze(moved) is classify_frieze(p)
    assert _verdict(moved) == _verdict(p)
    assert ncc_status(moved).uncontrolled == {
        reduce_cell((c[0] + shift[0], c[1] + shift[1]), t)
        for c in ncc_status(p).uncontrolled}


@settings(max_examples=150, deadline=None)
@given(patterns())
def test_dual_keeps_group_and_verdict_under_rotated_movesets(p):
    d = dual(p)
    assert classify_frieze(d) is classify_frieze(p)
    assert ncc_status(rotated_dual(p)) == ncc_status(p)


@settings(max_examples=150, deadline=None)
@given(patterns(), st.integers(-6, 6))
def test_mirrored_pattern_keeps_group_and_verdict(p, axis2):
    m = apply(Isometry((-1, 1), (axis2, 0)), p)
    assert classify_frieze(m) is classify_frieze(p)
    # every standard moveset is left-right symmetric
    assert _verdict(m) == _verdict(p)
    assert ncc_status(m).uncontrolled == {
        reduce_cell((axis2 - c[0], c[1]), m.t)
        for c in ncc_status(p).uncontrolled}


def test_vertical_translations_get_mirrors_and_glides():
    single = make_pattern([piece((0, 0))], (0, 1))
    assert classify_frieze(single) is FriezeGroup.P11M
    pair = make_pattern([piece((0, 0)), piece((0, 1), DOWN)], (0, 2))
    flags = detect_symmetries(pair)
    assert (flags.h, flags.v, flags.g, flags.r) == (True, True, False, True)
    assert classify_frieze(pair) is FriezeGroup.P2MM
    glide = make_pattern([piece((0, 0)), piece((1, 1))], (0, 2))
    assert classify_frieze(glide) is FriezeGroup.P11G
    assert detect_symmetries(glide).witnesses == (
        Isometry((-1, 1), (1, 1)),)
    assert apply(Isometry((-1, 1), (1, 1)), glide) == glide
    assert canonicalize(glide) == glide
