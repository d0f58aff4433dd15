import itertools
import time
from dataclasses import replace

import pytest

from shogi_frieze import control, search
from shogi_frieze import (BISHOP, GOLD, KING, KNIGHT, LANCE, PAWN, ROOK,
                          SILVER, FriezeGroup, PieceKind, RegionClass,
                          SearchBounds, Verdict, classify_frieze,
                          control_of_pattern, find_crystal, find_duality,
                          find_special_form, form_of, fragility_check,
                          make_pattern, ncc_status, ncc_vector, oracle,
                          partition_neighborhood, satisfies_table)
from shogi_frieze.control import KernelGeometry, _move_control
from shogi_frieze.geometry import canonical_sign, reduce_cell
from shogi_frieze.oracle import _verdict_from_parts
from shogi_frieze.pattern import Form, PatternError, canonicalize
from shogi_frieze.pieces import (chess_knight_moveset, reverse_chariot_moveset,
                                 sideways_silver_moveset)
from shogi_frieze.search import (EXPECTED_TABLE, KIND_COLUMNS, ROW_ORDER,
                                 _assignment_indices, _cell_key, _cell_pool,
                                 _CellSet, _combinations, _first_translate,
                                 _FormJudge, _form, _has_roles, _MoveRows,
                                 _period_candidates, _scan, _ScanTables,
                                 _symmetric_combinations, orbit_key,
                                 staircase_target)
from shogi_frieze.symmetry import GROUP_ROLES, role_linear_part
from conftest import DOWN, LEFTY, UP, cell_sets, enumerate_forms, piece


def singleton_form(orientation=UP, t=(9, 0)):
    return Form((((0, 0), orientation, None),), t)


def test_ncc_vector_singleton():
    vec = ncc_vector(singleton_form())
    assert vec[KING].verdict is Verdict.COMPLETE
    assert vec[KNIGHT].verdict is Verdict.FAILS
    assert vec[PAWN].verdict is Verdict.FAILS


def test_ncc_vector_empty_kinds():
    assert ncc_vector(singleton_form(), kinds=()) == {}


def test_find_crystal_p2mm():
    reports = find_crystal(FriezeGroup.P2MM, staircase_target(0),
                           SearchBounds(2, (2, 2), 2))
    assert reports
    first = reports[0]
    assert classify_frieze(first.pattern) is FriezeGroup.P2MM
    assert first.vector == staircase_target(0)


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_is_refused(limit):
    # an empty list would read as a certificate that the space is exhausted
    bounds = SearchBounds(2, (2, 2), 2)
    with pytest.raises(ValueError, match="limit"):
        find_crystal(FriezeGroup.P2MM, staircase_target(0), bounds,
                     limit=limit)
    with pytest.raises(ValueError, match="limit"):
        find_special_form(bounds, limit=limit)


def test_find_crystal_empty_space():
    reports = find_crystal(FriezeGroup.P1, staircase_target(5),
                           SearchBounds(0, (2, 2), 2))
    assert reports == []


def test_find_crystal_reports_reverify():
    reports = find_crystal(FriezeGroup.P2, staircase_target(1),
                           SearchBounds(2, (2, 2), 1))
    assert reports
    for rep in reports:
        assert classify_frieze(rep.pattern) is rep.group
        vec = ncc_vector(rep.form)
        assert {k: s.satisfies for k, s in vec.items()} == rep.vector


def _first_form_of_each_orbit(bounds, mirror):
    """The naive reference of the pruned scan: every form, in enumeration
    order, kept when its orbit key is new and it makes a valid pattern."""
    seen, out = set(), []
    for form in enumerate_forms(bounds):
        key = orbit_key(form, mirror)
        if key in seen:
            continue
        seen.add(key)
        try:
            form.instantiate(KING)
        except PatternError:
            continue
        out.append(form)
    return out


@pytest.mark.parametrize("bounds, kinds, mirror, judged", [
    (SearchBounds(3, (3, 3), 3), KIND_COLUMNS, True, 378),
    (SearchBounds(2, (2, 2), 2, allow_decorations=True), KIND_COLUMNS, True,
     28),
    (SearchBounds(2, (2, 2), 2, allow_decorations=True), (LEFTY, KING), False,
     44),
], ids=["p1", "decorated-mirror", "decorated"])
def test_pruned_scan_is_first_form_of_each_orbit(monkeypatch, bounds, kinds,
                                                 mirror, judged):
    # The scan skips a whole cell set whose classes are a translate (or
    # mirror) of an earlier cell set's, then keeps each form of the rest
    # that no self-map of its cell set sends to an earlier form: the same
    # forms, in the same order, as keeping the first form of each orbit
    # among every form.  It prunes by the mirror only when every kind's
    # moveset is left-right symmetric, which LEFTY's is not.  It keys no
    # form; the number of cell sets judged pins how much the cell keys
    # prune (of 2 640, 109 and 109).
    calls, judges = [], []
    monkeypatch.setattr(search, "orbit_key",
                        lambda form, mirror: calls.append(form)
                        or orbit_key(form, mirror))
    judge = search._FormJudge
    monkeypatch.setattr(search, "_FormJudge",
                        lambda *args: judges.append(args) or judge(*args))
    scanned = [cell_set.form(a) for cell_set, a in _scan(bounds, kinds)]
    assert scanned == _first_form_of_each_orbit(bounds, mirror)
    assert (len(calls), len(judges)) == (0, judged)


@pytest.mark.parametrize("bounds", [
    SearchBounds(3, (3, 3), 3),
    SearchBounds(2, (2, 2), 2, allow_decorations=True),
    SearchBounds(2, (2, 3), 4),
    SearchBounds(3, (2, 2), 5),
], ids=["p1", "decorated", "tall", "diagonal"])
def test_self_map_verdicts_match_their_references(bounds):
    # Every form of every cell set, kept by the scan or not, judged by its
    # cell set's self-maps and by the references: first of its orbit iff
    # its orbit key is new among the forms of its cell set (orbit-mates on
    # other cell sets are the cell key's, checked by the scan tests), a
    # redundant period iff its all-king pattern has a shorter one, and,
    # on its own period, the group classify_frieze gives.  The judge keys
    # orbits by the mirror too only for kinds with left-right symmetric
    # movesets.
    tables = {True: _ScanTables(bounds, KIND_COLUMNS),
              False: _ScanTables(bounds, (LEFTY, KING))}
    assert [tab.mirror for tab in tables.values()] == [True, False]
    later = {True: 0, False: 0}
    redundant = 0
    groups = set()
    for t in _period_candidates(bounds):
        for cells in cell_sets(bounds, t):
            judges = {m: _FormJudge(tables[m], t, cells) for m in later}
            seen = {m: set() for m in later}
            for a in _assignment_indices(bounds, len(cells)):
                form = _form(bounds, t, cells, a)
                for mirror, judge in judges.items():
                    key = orbit_key(form, mirror)
                    new = key not in seen[mirror]
                    assert judge.first_of_orbit(a) == new, (form, mirror)
                    later[mirror] += not new
                    seen[mirror].add(key)
                pattern = form.instantiate(KING)
                assert judges[True].period_redundant(a) \
                    == (pattern.t != form.t), form
                if pattern.t != form.t:
                    redundant += 1
                else:
                    group = classify_frieze(pattern)
                    assert judges[True].group(a) is group, form
                    groups.add(group)
    assert later[True] > later[False] > 0 and redundant > 0, (later,
                                                               redundant)
    assert groups == set(FriezeGroup), groups


def _filter_all(bounds, kinds=KIND_COLUMNS, mirror=True):
    """The naive reference of ``find_crystal``: the first form of each
    orbit (with ``mirror``, under translations and the mirror) among every
    form of the space, on every translation, that makes a pattern with its
    own period, with that pattern's group and its vector over ``kinds`` (a
    fresh kernel per form)."""
    out = []
    for form in _first_form_of_each_orbit(bounds, mirror):
        pattern = form.instantiate(KING)
        if pattern.t == form.t:
            vector = {k: s.satisfies
                      for k, s in ncc_vector(form, kinds).items()}
            out.append((form, classify_frieze(pattern), vector))
    return out


@pytest.mark.parametrize("bounds", [
    SearchBounds(2, (2, 2), 2),
    SearchBounds(2, (2, 2), 2, allow_decorations=True),
    SearchBounds(2, (2, 3), 4),
], ids=["plain", "decorated", "tall"])
def test_group_driven_search_matches_filter_all(bounds):
    # Each group skips the translations its isometries cannot fix and the
    # cell sets no map with their linear parts sends onto themselves; the
    # reports must still be filter-all's, in order.  Targets: the group's
    # staircase row, and the vector of its first orbit in the space.
    reference = _filter_all(bounds)
    vertical = set()
    for row, group in enumerate(ROW_ORDER):
        targets = [staircase_target(row)]
        targets += [v for _, g, v in reference if g is group][:1]
        for target in targets:
            got = [r.form for r in find_crystal(group, target, bounds)]
            assert got == [f for f, g, v in reference
                           if g is group and v == target], (group, target)
            vertical.update(group for f in got if f.t[0] == 0)
    assert len(vertical) >= 4, vertical


@pytest.mark.parametrize("bounds", [
    SearchBounds(2, (2, 2), 2),
    SearchBounds(2, (2, 2), 2, allow_decorations=True),
    SearchBounds(2, (2, 3), 4),
], ids=["plain", "decorated", "tall"])
def test_asymmetric_kind_search_matches_filter_all(bounds):
    # LEFTY's moveset is not left-right symmetric, so a form and its mirror
    # image can get different verdicts and lie in different orbits: a
    # search with it must not prune by the mirror.  Its reports must be
    # filter-all's without the mirror, in order, for every group and both
    # of LEFTY's target values (the king satisfies on every form here).
    kinds = (LEFTY, KING)
    reference = _filter_all(bounds, kinds, mirror=False)
    for group in ROW_ORDER:
        for value in (True, False):
            target = {LEFTY: value, KING: True}
            got = [r.form for r in find_crystal(group, target, bounds)]
            assert got == [f for f, g, v in reference
                           if g is group and v == target], (group, target)


@pytest.mark.parametrize("bounds", [
    SearchBounds(2, (2, 2), 2),
    SearchBounds(2, (2, 2), 2, allow_decorations=True),
    SearchBounds(2, (2, 3), 4),
], ids=["plain", "decorated", "tall"])
def test_special_form_search_matches_filter_all(bounds):
    # The searches judge a form's kind columns up to the first that misses
    # the target, in an order that moves each column that missed to the
    # front.  find_special_form must still report, in order, every first
    # form of an orbit with its own period on which no column fails, with
    # every column's status; and find_crystal must report the same forms
    # whatever the order of the target's keys.
    reference = _filter_all(bounds)
    reports = find_special_form(bounds)
    assert [r.form for r in reports] == [f for f, _, v in reference
                                         if all(v.values())]
    assert reports
    for r in reports:
        assert r.statuses == ncc_vector(r.form), r.form
    for row, group in enumerate(ROW_ORDER):
        targets = [staircase_target(row)]
        targets += [v for _, g, v in reference if g is group][:1]
        for target in targets:
            reverse = dict(reversed(target.items()))
            got = find_crystal(group, target, bounds)
            assert [r.form for r in find_crystal(group, reverse, bounds)] \
                == [r.form for r in got], (group, target)


@pytest.mark.parametrize("bounds", [
    SearchBounds(3, (3, 3), 3),
    SearchBounds(2, (2, 2), 2, allow_decorations=True),
    SearchBounds(2, (2, 3), 4),
    SearchBounds(3, (2, 2), 5),
], ids=["p1", "decorated", "tall", "diagonal"])
def test_position_and_group_filters_skip_only_repeats(bounds):
    # Every combination of pool cells on every translation, for every
    # group.  The group filter (a translation its roles cannot fix, or
    # ``_has_roles``) may skip a combination only when none of its forms
    # with their own period has the group.  Among the combinations it
    # keeps, one that fails the position test must have the classes, up
    # to translation, of an earlier one that passes it.
    skipped = dict.fromkeys(("translation", "roles", "position"), 0)
    tables = _ScanTables(bounds, KIND_COLUMNS)
    for t in _period_candidates(bounds):
        combos = []
        for n in range(1, bounds.max_motif_pieces + 1):
            for combo in itertools.combinations(_cell_pool(bounds, t), n):
                cells = [reduce_cell(c, t) for c in combo]
                if len(set(cells)) == n:
                    combos.append((combo, cells))
        assert [cells for _, cells in combos] == list(cell_sets(bounds, t))
        judges = {}
        for group, roles in GROUP_ROLES.items():
            required = [(r, role_linear_part(r, t)) for r in roles]
            fixable = all(S is not None for _, S in required)
            first_keys = set()
            for combo, cells in combos:
                if fixable and _has_roles(t, cells, required):
                    key = _cell_key(t, cells, False)
                    if _first_translate(combo):
                        first_keys.add(key)
                    else:
                        assert key in first_keys, (t, combo)
                        skipped["position"] += 1
                    continue
                skipped["roles" if fixable else "translation"] += 1
                judge = judges.get(tuple(cells))
                if judge is None:
                    judge = judges[tuple(cells)] = _FormJudge(
                        tables, t, cells)
                for a in _assignment_indices(bounds, len(cells)):
                    assert (judge.period_redundant(a)
                            or judge.group(a) is not group), (group, t, a)
    assert all(skipped.values()), skipped


@pytest.mark.parametrize("bounds", [
    SearchBounds(3, (3, 3), 3),
    SearchBounds(2, (2, 3), 4),
    SearchBounds(3, (2, 2), 5),
    SearchBounds(4, (4, 3), 4),
], ids=["p1", "tall", "diagonal", "p11g"])
def test_symmetric_combinations_are_what_has_roles_accepts(bounds):
    # A group scan generates its combinations from one of its roles instead
    # of filtering every combination by ``_has_roles``.  Per role, the
    # generator must give exactly the combinations with distinct classes
    # that have a self-map of that role, and per group, what the scan
    # visits must leave, after ``_has_roles`` on all its roles, exactly
    # what filtering every combination leaves; both in enumeration order.
    # On translations off the x axis a class has several pool cells.  On
    # t = (4, 0) the cells (0, 0) and (2, 0) have the shorter period
    # (2, 0): an h map fixes both and a g map swaps them.  (A map with a
    # role squares to a translation by a multiple of t on any class it
    # cycles, so its cycles have one or two classes.)
    n = bounds.max_motif_pieces
    repeated = False
    for t in _period_candidates(bounds):
        pool = _cell_pool(bounds, t)
        classes = {c: reduce_cell(c, t) for c in pool}
        repeated |= len(set(classes.values())) < len(pool)
        combos = [combo for k in range(1, n + 1)
                  for combo in itertools.combinations(pool, k)
                  if len({classes[c] for c in combo}) == k]
        accepted = {}
        for role in "ghrv":
            S = role_linear_part(role, t)
            if S is None:
                continue
            accepted[role] = [combo for combo in combos if _has_roles(
                t, [classes[c] for c in combo], [(role, S)])]
            assert _symmetric_combinations(t, pool, classes, role, n) \
                == accepted[role], (t, role)
        for group, roles in GROUP_ROLES.items():
            if not roles or any(r not in accepted for r in roles):
                continue
            required = [(r, role_linear_part(r, t)) for r in roles]
            visited = [combo for combo in _combinations(bounds, t, pool,
                                                        classes, roles)
                       if _has_roles(t, [classes[c] for c in combo], required)]
            assert visited == [combo for combo in accepted[roles[0]]
                               if all(combo in accepted[r] for r in roles)], \
                (t, group)
        if t == (4, 0) and bounds.box[0] > 2:
            for role in "hg":
                assert ((0, 0), (2, 0)) in accepted[role]
    assert repeated


@pytest.mark.parametrize("bounds", [
    SearchBounds(3, (3, 3), 3),
    SearchBounds(2, (2, 3), 4),
    SearchBounds(3, (2, 2), 5),
], ids=["p1", "tall", "diagonal"])
def test_skipped_translations_repeat_kept_cell_sets(monkeypatch, bounds):
    # With the mirror, a scan skips the translations whose mirror image
    # comes earlier: every combination there that passes the position test
    # must have the cell key of one the scan kept before.  Without the
    # mirror (LEFTY), it skips none.
    visited = []
    pool = search._cell_pool
    monkeypatch.setattr(search, "_cell_pool",
                        lambda b, t: visited.append(t) or pool(b, t))
    candidates = list(_period_candidates(bounds))
    list(_scan(bounds, (LEFTY, KING)))
    assert visited == candidates
    visited.clear()
    list(_scan(bounds, KIND_COLUMNS))
    kept, skipped = set(), 0
    for t in candidates:
        keys = set()
        for k in range(1, bounds.max_motif_pieces + 1):
            for combo in itertools.combinations(pool(bounds, t), k):
                cells = [reduce_cell(c, t) for c in combo]
                if _first_translate(combo) and len(set(cells)) == k:
                    keys.add(_cell_key(t, cells, True))
        if t in visited:
            kept |= keys
        else:
            assert keys <= kept, t
            skipped += 1
    assert skipped


def test_period_candidates_are_generated_lazily():
    # ring by ring, in the order of the sorted list they replace
    for mp in range(1, 13):
        full = [(a, b) for a in range(mp + 1) for b in range(-mp, mp + 1)
                if (a, b) != (0, 0) and canonical_sign((a, b)) == (a, b)]
        full.sort(key=lambda t: (max(abs(t[0]), abs(t[1])), t))
        assert list(_period_candidates(SearchBounds(1, (1, 1), mp))) == full
    # a search that stops at its first report never builds the far rings
    start = time.perf_counter()
    reports = find_crystal(FriezeGroup.P2MM, staircase_target(0),
                           SearchBounds(2, (2, 2), 10**6), limit=1)
    assert time.perf_counter() - start < 1.0
    assert [r.pattern.t for r in reports] == [(1, 0)]


def test_p11g_finds_crystals_on_vertical_translations():
    # the king-only p11g row on a tall box: both crystals have t = (0, 4),
    # which a search of horizontal translations only never reached
    reports = find_crystal(FriezeGroup.P11G, staircase_target(6),
                           SearchBounds(2, (2, 3), 4))
    assert [r.pattern.t for r in reports] == [(0, 4), (0, 4)]
    assert all(classify_frieze(r.pattern) is FriezeGroup.P11G
               for r in reports)


def test_p1_scan_builds_one_geometry_per_cell_set(monkeypatch):
    # The forms of one cell set that pass the period and group filters
    # share its period and cells, so the P1 benchmark scan builds one
    # ``KernelGeometry`` per such cell set, judges each form on that cell
    # set's masks and reads a report's statuses off the same masks.  A
    # form's columns are judged up to the first that misses the target,
    # and a kind's reach masks are built only when a form first needs
    # them: the P1 scan computes 3 829 column masks for its 2 166 forms,
    # not 8 a form.  Each cell set computes a move's mask for a piece
    # once, whatever kinds and orientations share the move, off the row of
    # the piece's class in its translation's table of paths (``_MoveRows``):
    # the P1 scan builds 97 rows on 13 translations, the P11G scan 19, and
    # neither has a ride too long to list, whose path is None and whose
    # mask ``KernelGeometry.mask`` asks of ``_ride`` with the pieces.
    # A geometry floods its neighborhood (``_partition``) only for a mask
    # that misses the occupied classes and is neither empty nor all of
    # it: 9 of the P1 scan's 339 geometries, 8 of the P11G scan's 15.  The
    # scans visit only cell sets that can be new: the P1 scan skips the
    # translations whose mirror image it scanned before, so it runs the
    # position test on 1 725 combinations and keys 724 cell sets (2 886
    # and 1 222 with every translation), and the P11G scan generates the
    # 179 combinations that a glide sends onto themselves, of which the
    # position test leaves 81 to ``_has_roles`` and the cell key (4 283
    # and 1 931 filtering every combination) and 36 to judge.  The judges
    # share one set of rules per self-map signature (``_FormJudge``): the
    # P1 scan builds 30 for its 378 cell sets, the P11G scan 11 for its
    # 36.  The reports are what a fresh geometry on each report's form
    # gives.
    counts = dict.fromkeys(("geometry", "flood", "matches", "uncontrolled",
                            "rows", "long", "position", "roles",
                            "cell_key", "judge", "rules"), 0)

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)
    counted(KernelGeometry, "__init__", "geometry")
    counted(control, "_partition", "flood")
    counted(_CellSet, "matches", "matches")
    counted(KernelGeometry, "uncontrolled", "uncontrolled")
    counted(_MoveRows, "_build", "rows")
    mask = KernelGeometry.mask

    def long_ride(g, cell, move, path):
        counts["long"] += path is None
        return mask(g, cell, move, path)
    monkeypatch.setattr(KernelGeometry, "mask", long_ride)
    counted(search, "_first_translate", "position")
    counted(search, "_has_roles", "roles")
    counted(search, "_cell_key", "cell_key")
    counted(search, "_FormJudge", "judge")
    counted(_ScanTables, "build_rules", "rules")
    scans = {
        FriezeGroup.P1: (dict.fromkeys(KIND_COLUMNS, False),
                         SearchBounds(3, (3, 3), 3),
                         dict(geometry=339, flood=9, matches=2_166,
                              uncontrolled=3_829, rows=97, long=0,
                              position=1_725, cell_key=724, judge=378,
                              rules=30),
                         182),
        FriezeGroup.P11G: ({k: k is KING for k in KIND_COLUMNS},
                           SearchBounds(4, (4, 3), 4),
                           dict(flood=8, position=179, roles=81, cell_key=81,
                                judge=36, rows=19, long=0, rules=11),
                           15),
    }
    for group, (target, bounds, expected, n) in scans.items():
        counts.update(dict.fromkeys(counts, 0))
        reports = find_crystal(group, target, bounds)
        assert len(reports) == n, group
        assert {k: counts[k] for k in expected} == expected, (group, counts)
        for r in reports:
            assert r.details == ncc_vector(r.form, target), r.form


@pytest.mark.parametrize("bounds", [
    SearchBounds(3, (3, 3), 3),
    SearchBounds(2, (2, 2), 2, allow_decorations=True),
    SearchBounds(2, (2, 3), 4),
    SearchBounds(3, (2, 2), 5),
], ids=["p1", "decorated", "tall", "diagonal"])
def test_reports_are_canonical_with_fresh_statuses(bounds):
    # A crystal report builds its pattern from the cell set's classes and
    # t without ``canonicalize``, and reads its statuses off the cell set's
    # geometry, which memoizes them by mask.  Per group, every form the
    # scan yields is reported under its own vector, exactly once; each
    # report's pattern must be its form's canonical all-king pattern and
    # its details the statuses of a fresh ``ncc_vector``.  Every group has
    # forms in each of these spaces.
    for group in ROW_ORDER:
        expected, targets = {}, []
        for cell_set, a in _scan(bounds, KIND_COLUMNS, group):
            form = cell_set.form(a)
            expected[form] = ncc_vector(form, KIND_COLUMNS)
            vector = {k: s.satisfies for k, s in expected[form].items()}
            if vector not in targets:
                targets.append(vector)
        reported = []
        for target in targets:
            for r in find_crystal(group, target, bounds):
                assert r.pattern == r.form.instantiate(KING), r.form
                assert canonicalize(r.pattern) == r.pattern, r.form
                assert r.details == expected[r.form], r.form
                reported.append(r.form)
        assert sorted(reported, key=repr) == sorted(expected, key=repr), \
            group
        assert expected, group


@pytest.mark.parametrize("t", [(34, 0), (33, -1), (0, 34)])
def test_long_rides_match_ncc_status(monkeypatch, t):
    # On these translations a rook's sideways ride, and on (0, 34) a
    # lance's ride along t, passes more than ``control._LISTED_MAX``
    # classes: its row in the translation's table of paths (``_MoveRows``)
    # does not list it (its path is None), and ``KernelGeometry.mask`` asks
    # ``_ride`` with the pieces where it stops.
    # Every form the scan yields there, judged on its cell set, must have
    # the statuses ncc_status gives its own patterns, column by column.
    bounds = SearchBounds(3, (3, 3), max(map(abs, t)))
    kinds = (LANCE, ROOK)
    monkeypatch.setattr(search, "_period_candidates", lambda b: iter([t]))
    calls = []
    mask = KernelGeometry.mask
    monkeypatch.setattr(KernelGeometry, "mask",
                        lambda g, cell, move, path: (path is None
                                                     and calls.append(move))
                        or mask(g, cell, move, path))
    judged = asked = 0
    for cell_set, a in _scan(bounds, kinds):
        if cell_set.judge.period_redundant(a):
            continue
        form = cell_set.form(a)
        expected = [ncc_status(form.instantiate(k)) for k in kinds]
        before = len(calls)
        assert cell_set.matches(a, [st.satisfies for st in expected],
                                [0, 1]), form
        assert list(cell_set.statuses(a).values()) == expected, form
        asked += len(calls) - before
        judged += 1
    assert judged > 200 and asked > 20, (judged, asked)


@pytest.mark.parametrize("orientation", [UP, DOWN], ids=["up", "down"])
@pytest.mark.parametrize("bounds, n", [
    (SearchBounds(3, (3, 3), 3), 372),
    (SearchBounds(2, (2, 2), 2, allow_decorations=True), 1_299),
], ids=["p1", "decorated"])
def test_one_orientation_scans_match_ncc_vector(bounds, n, orientation):
    # A space with one orientation, the CLI ``search`` default, indexes it
    # as 0 whichever it is: with only Down allowed, a cell set's side 0 is
    # Down.  Every form of such a scan whose period is not redundant is
    # judged on its cell set, every column (``matches`` with the wanted
    # vector of a fresh ``ncc_vector``), and must have ncc_vector's
    # statuses.
    bounds = replace(bounds, orientations=frozenset({orientation}))
    judged = 0
    for cell_set, a in _scan(bounds, KIND_COLUMNS):
        if cell_set.judge.period_redundant(a):
            continue
        form = cell_set.form(a)
        assert {o for _, o, _ in form.cells} == {orientation}, form
        expected = ncc_vector(form)
        assert cell_set.matches(a, [expected[k].satisfies
                                    for k in KIND_COLUMNS],
                                list(range(len(KIND_COLUMNS)))), form
        assert cell_set.statuses(a) == expected, form
        judged += 1
    assert judged == n


@pytest.mark.parametrize("bounds, trivial", [
    (SearchBounds(3, (3, 3), 3), True),
    (SearchBounds(2, (2, 2), 2, allow_decorations=True), False),
], ids=["plain", "decorated"])
def test_assignments_filter_as_the_rules(bounds, trivial):
    # ``_FormJudge.assignments`` gives, in order, what the rules give one
    # assignment at a time: first of its orbit and, with a group, a period
    # that is not redundant and that group.  A cell set whose only
    # self-map is the identity takes a path that reads no assignment, so
    # the group must still decide what it gives; the plain space has such
    # cell sets (``trivial``), the decorated one none.
    groups = (None,) + tuple(FriezeGroup)
    for kinds in (KIND_COLUMNS, (LEFTY, KING)):
        tables = _ScanTables(bounds, kinds)
        identity_only, realized = 0, set()
        for t in _period_candidates(bounds):
            for cells in cell_sets(bounds, t):
                judge = _FormJudge(tables, t, cells)
                identity_only += not (judge.orbit or judge.translations
                                      or judge.roles)
                every = list(_assignment_indices(bounds, len(cells)))
                for group in groups:
                    expected = [a for a in every if judge.first_of_orbit(a)
                                and (group is None
                                     or not judge.period_redundant(a)
                                     and judge.group(a) is group)]
                    assert list(judge.assignments(group)) == expected, \
                        (t, cells, group)
                    if expected:
                        realized.add(group)
        assert (identity_only > 0) == trivial, identity_only
        assert realized == set(groups), realized


def test_limit_stops_at_the_reporting_cell_set(monkeypatch):
    # find_crystal(limit=1) stops at its first report: the scan builds no
    # ``_CellSet`` after the one whose form it reports.
    built = []
    cell_set = search._CellSet
    monkeypatch.setattr(search, "_CellSet",
                        lambda *args: built.append(cell_set(*args))
                        or built[-1])
    bounds = SearchBounds(3, (3, 3), 3)
    target = dict.fromkeys(KIND_COLUMNS, False)
    every = find_crystal(FriezeGroup.P1, target, bounds)
    scanned = [c.cells for c in built]
    built.clear()
    first = find_crystal(FriezeGroup.P1, target, bounds, limit=1)
    assert first == every[:1]
    assert [c for c, _, _ in first[0].form.cells] == built[-1].cells
    assert [c.cells for c in built] == scanned[:len(built)]
    assert len(built) < len(scanned)


def test_determinism():
    bounds = SearchBounds(2, (2, 2), 2)
    a = find_crystal(FriezeGroup.P2MM, staircase_target(0), bounds)
    b = find_crystal(FriezeGroup.P2MM, staircase_target(0), bounds)
    assert [r.form for r in a] == [r.form for r in b]


def test_special_form_found_and_annotated():
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


def test_singleton_is_not_special():
    reports = find_special_form(SearchBounds(1, (1, 1), 9))
    assert reports == []


def test_duality_exhibits():
    d = find_duality(SearchBounds(2, (2, 2), 2))
    assert d.gold_complete is not None
    assert d.silver_nearly is not None
    gold_status = ncc_vector(d.gold_complete, (GOLD,))[GOLD]
    assert gold_status.verdict is Verdict.COMPLETE
    silver_status = ncc_vector(d.silver_nearly, (SILVER,))[SILVER]
    assert silver_status.verdict is Verdict.NEARLY_COMPLETE
    assert d.gold_rook is not None and d.silver_bishop is not None
    assert {x.kind for x in d.gold_rook.pieces} == {GOLD, ROOK}
    assert {x.kind for x in d.silver_bishop.pieces} == {SILVER, BISHOP}


def test_duality_trivial_bounds():
    d = find_duality(SearchBounds(1, (1, 1), 1,
                                  orientations=frozenset((UP,))))
    assert d.gold_complete is None and d.gold_rook is None


def test_find_crystal_with_decorations():
    # decorated variants are enumerated and can change the classified
    # group: a decorated lone piece on a horizontal period drops from
    # p1m1 to p1 because the arrow breaks the piece's own mirror
    bounds = SearchBounds(1, (2, 1), 2, orientations=frozenset((UP,)),
                          allow_decorations=True)
    reports = find_crystal(FriezeGroup.P1, {KING: True}, bounds)
    decorated = [r for r in reports
                 if r.pattern.t[1] == 0
                 and r.pattern.pieces[0].decoration is not None]
    assert decorated
    plain = make_pattern([piece((0, 0))], (2, 0))
    assert classify_frieze(plain) is FriezeGroup.P1M1


def test_special_form_region_annotation_helper():
    # which region of the partition each kind leaves uncontrolled
    rep = find_special_form(SearchBounds(2, (2, 2), 2), limit=1)[0]
    regions = {r: {c for c, rr in rep.partition.items() if rr is r}
               for r in RegionClass}
    base, outside = regions[RegionClass.BASE], regions[RegionClass.OUTSIDE]
    assert base and outside

    def controlled(kind, region):
        return region.isdisjoint(rep.statuses[kind].uncontrolled)
    assert controlled(KNIGHT, outside) and not controlled(KNIGHT, base)
    assert controlled(PAWN, base) and not controlled(PAWN, outside)
    assert controlled(LANCE, base) and not controlled(LANCE, outside)
    for kind in (BISHOP, SILVER, GOLD, ROOK, KING):
        assert all(controlled(kind, r) for r in regions.values())


def test_fixture_staircase(crystal_fixtures):
    from shogi_frieze import form_of
    for i, group in enumerate(ROW_ORDER):
        vec = ncc_vector(form_of(crystal_fixtures[group]))
        got = {k: s.satisfies for k, s in vec.items()}
        assert got == EXPECTED_TABLE[group], group
        # staircase: satisfied set is a suffix, strictly shrinking
        satisfied = [k for k in KIND_COLUMNS if got[k]]
        assert satisfied == list(KIND_COLUMNS[i + 1:])


def test_fragility_identity(crystal_fixtures):
    assert fragility_check(crystal_fixtures, {}) == []


def test_fragility_refuses_a_repeated_fixture(crystal_fixtures):
    fixtures = dict(crystal_fixtures)
    fixtures[FriezeGroup.P11G] = fixtures[FriezeGroup.P2]
    with pytest.raises(PatternError, match="fixtures must classify to the "
                                           "7 distinct groups"):
        fragility_check(fixtures, {})


@pytest.mark.parametrize("kind,builder", [
    (LANCE, reverse_chariot_moveset),
    (SILVER, sideways_silver_moveset),
    (KNIGHT, chess_knight_moveset),
])
def test_fragility_substitutions_break_table(crystal_fixtures, kind, builder):
    changed = fragility_check(crystal_fixtures, {kind: builder()})
    assert changed
    assert all(k == kind for _, k in changed)


def test_fragility_matches_two_tables(crystal_fixtures):
    """For every nonempty set of the CLI's substitutions, the cells that
    change are those whose verdict differs between the base table and a
    second table built with the substituted columns."""
    movesets = {LANCE: reverse_chariot_moveset(),
                SILVER: sideways_silver_moveset(),
                KNIGHT: chess_knight_moveset()}
    base = satisfies_table(crystal_fixtures)
    for n in range(1, len(movesets) + 1):
        for chosen in itertools.combinations(movesets, n):
            substitution = {k: movesets[k] for k in chosen}
            columns = [PieceKind(k.name, substitution[k])
                       if k in substitution else k for k in KIND_COLUMNS]
            table = satisfies_table(crystal_fixtures, columns)
            want = [(group, kind) for group in ROW_ORDER
                    for kind, column in zip(KIND_COLUMNS, columns)
                    if base[group][kind].satisfies
                    != table[group][column].satisfies]
            assert want
            assert fragility_check(crystal_fixtures, substitution) == want


FRAGILE_KINDS = (PieceKind(LANCE.name, reverse_chariot_moveset()),
                 PieceKind(SILVER.name, sideways_silver_moveset()),
                 PieceKind(KNIGHT.name, chess_knight_moveset()))


def _oracle_status(p):
    """The oracle's verdict with its uncontrolled window cells reduced to
    classes (the window holds one cell per class)."""
    st = oracle.brute_ncc(oracle.replicate(p, oracle.sufficient_copies(p)))
    return (st.verdict, st.uncontrolled_class,
            frozenset(reduce_cell(c, p.t) for c in st.uncontrolled))


def _moves(piece, kinds, ride):
    """The step (or ride) displacements of any of ``kinds`` on ``piece``."""
    out = set()
    for kind in kinds:
        m = kind.oriented(piece.orientation)
        out |= m.rides if ride else m.steps
    return out


def _ally_to_enemy(before, after, kinds):
    """For two patterns on the same period and cells, the number of step
    and of ride displacements that some piece makes in both and whose
    landing piece is its ally in ``before`` and its enemy in ``after``."""
    cells = after.cells()
    index = {c: j for j, c in enumerate(cells)}
    flips = {False: 0, True: 0}
    for was, now in zip(before.pieces, after.pieces):
        for ride in flips:
            for move in _moves(was, kinds, ride) & _moves(now, kinds, ride):
                if ride:
                    cls, _ = _move_control(after.t, cells, now.cell, move)
                else:
                    cls = reduce_cell((now.cell[0] + move[0],
                                       now.cell[1] + move[1]), after.t)
                j = index.get(cls)
                if (j is not None
                        and before.pieces[j].orientation is was.orientation
                        and after.pieces[j].orientation
                        is not now.orientation):
                    flips[ride] += 1
    return flips


@pytest.mark.parametrize("bounds", [
    SearchBounds(3, (3, 2), 2),
    SearchBounds(2, (2, 2), 2, allow_decorations=True),
], ids=["plain", "decorated"])
def test_kernel_matches_ncc_status_on_every_form(bounds):
    # Every form of the space, judged as the searches judge it: on its cell
    # set (``_CellSet``), each kind column's verdict from the cell set's
    # masks and every field of the status a report reads off those masks;
    # a form whose period is redundant by ncc_vector on its canonical
    # pattern.  Each is compared with the
    # verdict read off that kind's own pattern: its control set
    # (control_of_pattern, no masks or memo) and partition, which must
    # equal ncc_status (a fresh kernel), and on every 16th reference the
    # oracle, which shares no code with either engine.  The references
    # read only the kind, the cells, their orientations and the period, so
    # each is computed once per such key (decorated forms repeat many).  A
    # shared geometry must hold up where a step's or a ride's landing piece
    # turns from ally to enemy.
    kinds = KIND_COLUMNS + FRAGILE_KINDS
    tables = _ScanTables(bounds, kinds)
    reference = {}
    checked = shared = 0
    flips = {False: 0, True: 0}
    for t in _period_candidates(bounds):
        rows = _MoveRows(tables, t, _cell_pool(bounds, t))
        for cells in cell_sets(bounds, t):
            cell_set = _CellSet(rows, cells)
            previous = None
            for a in _assignment_indices(bounds, len(cells)):
                form = cell_set.form(a)
                pattern = form.instantiate(KING)
                assert cell_set.judge.period_redundant(a) \
                    == (pattern.t != t), form
                if pattern.t != t:
                    vector = ncc_vector(form, kinds)
                    statuses = [vector[k] for k in kinds]
                    verdicts = [st.verdict for st in statuses]
                else:
                    verdicts = [cell_set.verdict(k, a)
                                for k in range(len(kinds))]
                    statuses = list(cell_set.statuses(a).values())
                    if previous is not None:
                        shared += 1
                        for ride, n in _ally_to_enemy(previous, pattern,
                                                      kinds).items():
                            flips[ride] += n
                    previous = pattern
                shape = (pattern.t, tuple(
                    (x.cell, x.orientation) for x in pattern.pieces))
                for kind, verdict, status in zip(kinds, verdicts, statuses,
                                                 strict=True):
                    p = form.instantiate(kind)
                    assert (p.t, tuple((x.cell, x.orientation)
                                       for x in p.pieces)) == shape, \
                        (form, kind)
                    expected = reference.get((kind, shape))
                    if expected is None:
                        ctrl = control_of_pattern(p)
                        regions = partition_neighborhood(p)
                        expected = _verdict_from_parts(regions, frozenset(
                            c for c in regions if not ctrl.contains(c)))
                        assert ncc_status(p) == expected, (form, kind)
                        if len(reference) % 16 == 0:
                            assert (expected.verdict,
                                    expected.uncontrolled_class,
                                    expected.uncontrolled) \
                                == _oracle_status(p), (form, kind)
                        reference[kind, shape] = expected
                    assert verdict is expected.verdict, (form, kind)
                    assert status == expected, (form, kind)
                    checked += 1
    assert checked > 20_000 and len(reference) > 3_000
    assert shared > checked // (2 * len(kinds))
    assert flips[False] > 100 and flips[True] > 100, flips


def _plain_orbit_key(form, mirror):
    """orbit_key written with the lattice helpers, for comparison."""
    def translation_key(cells, t):
        return (t, min(tuple(sorted(
            (reduce_cell((x - ax, y - ay), t), o.value, d is not None,
             d or (0, 0))
            for (x, y), o, d in cells)) for (ax, ay), _, _ in cells))
    key = translation_key(form.cells, form.t)
    if mirror:
        mirrored = [((-c[0], c[1]), o, (-d[0], d[1]) if d else None)
                    for c, o, d in form.cells]
        key = min(key, translation_key(
            mirrored, canonical_sign((-form.t[0], form.t[1]))))
    return key


def test_p1_space_counts_and_orbit_keys():
    bounds = SearchBounds(3, (3, 3), 3)
    forms = list(enumerate_forms(bounds))
    assert len(forms) == 16_766
    keys = [orbit_key(f, True) for f in forms]
    assert len(set(keys)) == 2_522
    assert keys[::7] == [_plain_orbit_key(f, True) for f in forms[::7]]
    assert [orbit_key(f, False) for f in forms[::7]] \
        == [_plain_orbit_key(f, False) for f in forms[::7]]
    reps = [cell_set.form(a) for cell_set, a in _scan(bounds, KIND_COLUMNS)]
    assert len(reps) == 2_522
    assert sum(form.instantiate(KING).t != form.t for form in reps) == 12


def test_duality_judges_mixed_kinds_on_their_own_period(monkeypatch):
    # The all-king patterns of these forms have period (1,-1), half of t,
    # while mixed instantiations can keep (2,-2).  Judged on the all-king
    # neighborhood and partition, rook+gold on the first form reads nearly
    # complete and gold+rook+rook+rook on the second complete; both fail.
    two = Form((((2, -1), UP, None), ((1, 0), UP, None)), (2, -2))
    assert two.instantiate(KING).t == (1, -1)
    for kinds in ([ROOK, GOLD], [GOLD, ROOK], [BISHOP, SILVER],
                  [SILVER, BISHOP]):
        mixed = two.instantiate_kinds(kinds)
        assert mixed.t == (2, -2)
        st = ncc_status(mixed)
        assert (st.verdict, st.uncontrolled_class, st.uncontrolled) \
            == _oracle_status(mixed), kinds
    assert ncc_status(two.instantiate_kinds([ROOK, GOLD])).verdict \
        is Verdict.FAILS
    king = two.instantiate(KING)
    g = KernelGeometry(king.t, king.cells())
    with pytest.raises(ValueError):  # moves for a pattern of two pieces
        g.judge([UP, UP], [ROOK.moveset, GOLD.moveset])

    # No small bounds scans the second form before a true pair, so the
    # scan is cut to that form alone; the pair found must hold.
    four = Form((((2, -1), DOWN, None), ((2, 0), UP, None),
                 ((1, 0), DOWN, None), ((1, 1), UP, None)), (2, -2))
    assert four.instantiate(KING).t == (1, -1)
    bounds = SearchBounds(4, (3, 3), 2)
    rows = _MoveRows(_ScanTables(bounds, (GOLD, SILVER)), four.t,
                     _cell_pool(bounds, four.t))
    cell_set = _CellSet(rows, [c for c, _, _ in four.cells])
    a = (1, 0, 1, 0) + (0,) * 4  # down, up, down, up; no decorations
    assert cell_set.form(a) == four
    monkeypatch.setattr(search, "_scan",
                        lambda bounds, kinds: iter([(cell_set, a)]))
    found = find_duality(bounds)
    assert _oracle_status(found.gold_rook)[0] is Verdict.COMPLETE
    assert _oracle_status(found.silver_bishop)[0] is Verdict.NEARLY_COMPLETE
