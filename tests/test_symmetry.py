import dataclasses
import itertools
import random

import pytest

from shogi_frieze import (KING, PAWN, STANDARD_KINDS, FriezeGroup, Isometry,
                          IsometryKind, SymmetryFlags, apply, classify_frieze,
                          detect_symmetries, dual, generate_from_recipe,
                          group_of, make_pattern, ncc_status, oracle)
from shogi_frieze.geometry import UNIT_DIRS, reduce_cell
from shogi_frieze.pattern import PatternError
from conftest import DOWN, UP, piece, random_pattern, rotated_dual


def test_apply_reflect_v_wraparound():
    p = make_pattern([piece((1, 0), kind=PAWN)], (2, 0))
    q = apply(Isometry((-1, 1), (0, 0)), p)
    assert q == p  # (-1,0) reduces back to (1,0)


def test_apply_reflect_h_flips():
    p = make_pattern([piece((0, 0), kind=PAWN)], (3, 0))
    q = apply(Isometry((1, -1), (0, 1)), p)
    assert q.pieces[0].cell == (0, 1)
    assert q.pieces[0].orientation is DOWN


def test_apply_rotate180():
    p = make_pattern([piece((0, 0))], (4, 0))
    q = apply(Isometry.rotate180((0.5, 0.5)), p)
    assert q.pieces[0].cell == (1, 1)
    assert q.pieces[0].orientation is DOWN


def test_apply_validates_half_integers():
    with pytest.raises(PatternError):
        Isometry.rotate180((0.25, 0.0))
    with pytest.raises(PatternError):
        generate_from_recipe([piece((0, 0))], FriezeGroup.P11M, (2, 0),
                             axis_y=0.25)


def test_isometry_is_linear_part_and_offset():
    assert [f.name for f in dataclasses.fields(Isometry)] == ["linear",
                                                              "offset"]
    assert Isometry.rotate180((1.5, 1.0)) == Isometry((-1, -1), (3, 2))


@pytest.mark.parametrize("iso, kind, params", [
    (Isometry((1, 1), (3, -1)), IsometryKind.TRANSLATE, dict(shift=(3, -1))),
    (Isometry((-1, -1), (1, -2)), IsometryKind.ROTATE180,
     dict(center=(0.5, -1.0))),
    (Isometry((1, -1), (0, 3)), IsometryKind.REFLECT_H, dict(axis_y=1.5)),
    (Isometry((-1, 1), (-1, 0)), IsometryKind.REFLECT_V, dict(axis_x=-0.5)),
    (Isometry((1, -1), (2, 1)), IsometryKind.GLIDE_H,
     dict(axis_y=0.5, shift=(2, 0))),
    (Isometry((-1, 1), (-2, -3)), IsometryKind.GLIDE_V,
     dict(axis_x=-1.0, shift=(0, -3))),
])
def test_constructors_read_back_kind_and_parameters(iso, kind, params):
    assert iso.kind is kind
    unset = dict(axis_x=0.0, axis_y=0.0, center=(0.0, 0.0), shift=(0, 0))
    for name, value in {**unset, **params}.items():
        assert getattr(iso, name) == value, name


def test_map_cell_matches_formulas():
    cells = [(0, 0), (3, -2), (-1, 5)]
    a2, b2, s = 3, -1, 2  # twice the axes (or center) x = 1.5, y = -0.5
    formulas = [
        (Isometry((1, 1), (s, -1)), lambda x, y: (x + s, y - 1), False),
        (Isometry.rotate180((a2 / 2, b2 / 2)),
         lambda x, y: (a2 - x, b2 - y), True),
        (Isometry((1, -1), (0, b2)), lambda x, y: (x, b2 - y), True),
        (Isometry((-1, 1), (a2, 0)), lambda x, y: (a2 - x, y), False),
        (Isometry((1, -1), (s, b2)), lambda x, y: (x + s, b2 - y), True),
        (Isometry((-1, 1), (a2, s)), lambda x, y: (a2 - x, y + s), False),
    ]
    for iso, formula, flips in formulas:
        assert iso.flips_orientation is flips
        for c in cells:
            assert iso.map_cell(c) == formula(*c), (iso.kind, c)


def test_is_symmetry_translate():
    rng = random.Random(3)
    for _ in range(20):
        p = random_pattern(rng)
        assert apply(Isometry((1, 1), p.t), p) == p


def test_is_symmetry_reflect_h_single_orientation_false():
    p = make_pattern([piece((0, 0))], (2, 0))
    assert apply(Isometry((1, -1), (0, 0)), p) != p


def test_is_symmetry_reflect_v_lone_piece():
    p = make_pattern([piece((0, 0))], (2, 0))
    assert apply(Isometry((-1, 1), (0, 0)), p) == p


def test_detect_one_up_per_period():
    flags = detect_symmetries(make_pattern([piece((0, 0))], (2, 0)))
    assert (flags.h, flags.v, flags.g, flags.r) == (False, True, False, False)


def test_detect_up_down_pair_horizontal():
    p = make_pattern([piece((0, 0), UP), piece((1, 0), DOWN)], (2, 0))
    flags = detect_symmetries(p)
    assert (flags.h, flags.v, flags.g, flags.r) == (False, True, True, True)


def test_detect_up_down_pair_vertical():
    p = make_pattern([piece((0, 0), UP), piece((0, 1), DOWN)], (2, 0))
    flags = detect_symmetries(p)
    assert (flags.h, flags.v, flags.g, flags.r) == (True, True, False, True)


def _differential_patterns():
    """Twelve small random patterns of one seed, then random patterns with
    horizontal, vertical and diagonal t, mixed kinds and decorations, half
    of them closed under a group's recipe on a horizontal or vertical
    period, and some of those with one decoration turned."""
    rng = random.Random(41)
    yield from (random_pattern(rng, max_pieces=4, span=2, tmax=3)
                for _ in range(12))
    rng = random.Random(67)
    for i in range(300):
        kinds = rng.choice(((KING,), (KING, PAWN), STANDARD_KINDS))
        p = random_pattern(rng, max_pieces=4, span=2, tmax=3, kinds=kinds,
                           decor=0.3)
        if i % 2:
            n = 2 * rng.randint(1, 2)
            try:
                p = generate_from_recipe(
                    p.pieces[:2], rng.choice(list(FriezeGroup)),
                    rng.choice(((n, 0), (0, n))),
                    axis_x=rng.randint(-2, 2) / 2,
                    axis_y=rng.randint(-2, 2) / 2,
                    center=(rng.randint(-2, 2) / 2, rng.randint(-2, 2) / 2))
            except PatternError:
                continue
            if i % 4 == 3:
                pieces = list(p.pieces)
                k = rng.randrange(len(pieces))
                pieces[k] = dataclasses.replace(
                    pieces[k], decoration=rng.choice(UNIT_DIRS))
                p = make_pattern(pieces, p.t)
        yield p


def test_detect_symmetries_matches_brute_symmetries():
    # the oracle tries every offset in a window on a replicated board; it
    # must find the same roles, the witnesses' maps modulo t and no
    # translation shorter than t
    groups = set()
    for p in _differential_patterns():
        flags = detect_symmetries(p)
        maps = oracle.brute_symmetries(
            oracle.replicate(p, oracle.sufficient_copies(p)))
        roles = set(maps.values())
        assert (flags.h, flags.v, flags.g, flags.r) \
            == tuple(r in roles for r in "hvgr"), p
        assert {(w.linear, reduce_cell(w.offset, p.t))
                for w in flags.witnesses} \
            == {(S, reduce_cell(o, p.t))
                for (S, o), role in maps.items() if role != "t"}, p
        assert {reduce_cell(o, p.t)
                for (_, o), role in maps.items() if role == "t"} \
            == {(0, 0)}, p
        groups.add(group_of(flags))
    assert len(groups) == 7


def test_classify_examples():
    assert classify_frieze(make_pattern([piece((0, 0))], (2, 0))) \
        is FriezeGroup.P1M1
    p = make_pattern([piece((0, 0), UP), piece((1, 0), DOWN)], (2, 0))
    assert classify_frieze(p) is FriezeGroup.P2MG
    q = make_pattern([piece((0, 0), UP), piece((0, 1), DOWN)], (2, 0))
    assert classify_frieze(q) is FriezeGroup.P2MM


def test_classify_diagonal_periods_are_p1_or_p2():
    p = make_pattern([piece((0, 0)), piece((1, 2))], (2, 3))
    assert classify_frieze(p) in (FriezeGroup.P1, FriezeGroup.P2)


def test_involutions():
    rng = random.Random(43)
    sigmas = [Isometry((1, -1), (0, 1)), Isometry((-1, 1), (2, 0)),
              Isometry.rotate180((0.5, 0.5))]
    for _ in range(25):
        p = random_pattern(rng)
        for sigma in sigmas:
            assert apply(sigma, apply(sigma, p)) == p


def test_dual_has_same_symmetries():
    rng = random.Random(47)
    for _ in range(30):
        p = random_pattern(rng)
        d = dual(p)
        assert classify_frieze(p) is classify_frieze(d)
        for w in detect_symmetries(p).witnesses:
            assert apply(w, d) == d


def test_classifier_total():
    rng = random.Random(53)
    for _ in range(60):
        assert classify_frieze(random_pattern(rng)) in FriezeGroup


def test_group_of_names_seven_flag_combinations():
    # of the 16 combinations of h, v, g and r, the seven groups' are
    # named, each by one group, and the other nine raise
    named = {}
    for h, v, g, r in itertools.product((False, True), repeat=4):
        flags = SymmetryFlags(h, v, g, r, ())
        try:
            named[h, v, g, r] = group_of(flags)
        except AssertionError:
            continue
    assert sorted(named.values(), key=lambda x: x.value) \
        == sorted(FriezeGroup, key=lambda x: x.value)
    assert named[False, True, True, True] is FriezeGroup.P2MG
    assert named[True, True, False, True] is FriezeGroup.P2MM
    assert (False, True, False, True) not in named  # v and r imply h or g


def test_recipe_p1_translates_only():
    basic = [piece((0, 0)), piece((1, 1))]
    p = generate_from_recipe(basic, FriezeGroup.P1, (4, 0))
    assert len(p.pieces) == 2 and p.t == (4, 0)
    assert classify_frieze(p) is FriezeGroup.P1


def test_recipe_p2mm_orbit():
    p = generate_from_recipe([piece((1, 1))], FriezeGroup.P2MM, (4, 0),
                             axis_x=1.5, axis_y=0.0)
    assert len(p.pieces) == 4
    cells = {(x.cell, x.orientation) for x in p.pieces}
    assert ((1, 1), UP) in cells and ((1, -1), DOWN) in cells
    assert ((2, 1), UP) in cells and ((2, -1), DOWN) in cells
    assert classify_frieze(p) is FriezeGroup.P2MM


def test_recipe_axis_on_half_period_shrinks_honestly():
    # a mirror axis through x=0 maps x=1 onto x=3, half a period away, so
    # the orbit is invariant under (2,0) and canonicalize returns that
    p = generate_from_recipe([piece((1, 1))], FriezeGroup.P2MM, (4, 0),
                             axis_x=0.0, axis_y=0.0)
    assert p.t == (2, 0)
    assert classify_frieze(p) is FriezeGroup.P2MM


def test_recipe_p11g_round_trip():
    basic = [piece((0, 0)), piece((1, 1))]
    p = generate_from_recipe(basic, FriezeGroup.P11G, (4, 0), axis_y=-0.5)
    assert classify_frieze(p) is FriezeGroup.P11G


def test_recipe_rejects_incompatible_period():
    with pytest.raises(PatternError):
        generate_from_recipe([piece((0, 0))], FriezeGroup.P2MM, (2, 1))
    with pytest.raises(PatternError):
        generate_from_recipe([piece((0, 0))], FriezeGroup.P11G, (3, 0))
    with pytest.raises(PatternError):
        generate_from_recipe([piece((0, 0))], FriezeGroup.P11G, (0, 3))


def test_recipe_closes_basic_motif_with_shorter_period():
    # the basic motif repeats every (1,0), half the recipe's period
    p = generate_from_recipe([piece((0, 0)), piece((1, 0))],
                             FriezeGroup.P11M, (2, 0))
    assert p == make_pattern([piece((0, 0)), piece((0, -1), DOWN)], (1, 0))


def test_recipe_collision():
    with pytest.raises(PatternError):
        # the piece sits on the horizontal axis, its mirror image conflicts
        generate_from_recipe([piece((0, 0))], FriezeGroup.P11M, (2, 0),
                             axis_y=0.0)


def test_decoration_breaks_mirror_symmetry():
    plain = make_pattern([piece((0, 0))], (2, 0))
    assert classify_frieze(plain) is FriezeGroup.P1M1
    decorated = make_pattern([piece((0, 0), decoration=(1, 1))], (2, 0))
    assert classify_frieze(decorated) is FriezeGroup.P1


def test_decoration_does_not_affect_control():
    plain = make_pattern([piece((0, 0))], (2, 0))
    decorated = make_pattern([piece((0, 0), decoration=(1, 1))], (2, 0))
    a, b = ncc_status(plain), ncc_status(decorated)
    assert (a.verdict, a.uncontrolled) == (b.verdict, b.uncontrolled)


def test_metamorphic_dual_with_rotated_movesets():
    rng = random.Random(59)
    for _ in range(40):
        p = random_pattern(rng)
        assert ncc_status(rotated_dual(p)) == ncc_status(p)
