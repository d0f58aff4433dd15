import dataclasses
import random

import pytest

from shogi_frieze import (PAWN, FriezeGroup, Isometry, IsometryKind,
                          apply, classify_frieze, detect_symmetries, dual,
                          generate_from_recipe, is_symmetry, make_pattern,
                          ncc_status)
from shogi_frieze.pattern import PatternError
from conftest import DOWN, UP, piece, random_pattern, rotated_dual


def test_apply_reflect_v_wraparound():
    p = make_pattern([piece((1, 0), kind=PAWN)], (2, 0))
    q = apply(Isometry.reflect_v(0.0), p)
    assert q == p  # (-1,0) reduces back to (1,0)


def test_apply_reflect_h_flips():
    p = make_pattern([piece((0, 0), kind=PAWN)], (3, 0))
    q = apply(Isometry.reflect_h(0.5), p)
    assert q.pieces[0].cell == (0, 1)
    assert q.pieces[0].orientation is DOWN


def test_apply_rotate180():
    p = make_pattern([piece((0, 0))], (4, 0))
    q = apply(Isometry.rotate180((0.5, 0.5)), p)
    assert q.pieces[0].cell == (1, 1)
    assert q.pieces[0].orientation is DOWN


def test_apply_validates_half_integers():
    with pytest.raises(PatternError):
        Isometry.reflect_h(0.25)
    with pytest.raises(PatternError):
        Isometry.glide_h(0.5, (0, 0))


def test_isometry_is_linear_part_and_offset():
    assert [f.name for f in dataclasses.fields(Isometry)] == ["linear",
                                                              "offset"]
    assert Isometry.glide_h(1.5, (2, 0)) == Isometry((1, -1), (2, 3))


@pytest.mark.parametrize("iso, kind, params", [
    (Isometry.translate((3, -1)), IsometryKind.TRANSLATE,
     dict(shift=(3, -1))),
    (Isometry.rotate180((0.5, -1.0)), IsometryKind.ROTATE180,
     dict(center=(0.5, -1.0))),
    (Isometry.reflect_h(1.5), IsometryKind.REFLECT_H, dict(axis_y=1.5)),
    (Isometry.reflect_v(-0.5), IsometryKind.REFLECT_V, dict(axis_x=-0.5)),
    (Isometry.glide_h(0.5, (2, 0)), IsometryKind.GLIDE_H,
     dict(axis_y=0.5, shift=(2, 0))),
    (Isometry.glide_v(-1.0, (0, -3)), IsometryKind.GLIDE_V,
     dict(axis_x=-1.0, shift=(0, -3))),
])
def test_constructors_read_back_kind_and_parameters(iso, kind, params):
    assert iso.kind is kind
    unset = dict(axis_x=0.0, axis_y=0.0, center=(0.0, 0.0), shift=(0, 0))
    for name, value in {**unset, **params}.items():
        assert getattr(iso, name) == value, name


def test_map_cell_matches_formulas():
    cells = [(0, 0), (3, -2), (-1, 5)]
    a, b, s = 1.5, -0.5, 2
    formulas = [
        (Isometry.translate((s, -1)), lambda x, y: (x + s, y - 1), False),
        (Isometry.rotate180((a, b)), lambda x, y: (2 * a - x, 2 * b - y),
         True),
        (Isometry.reflect_h(b), lambda x, y: (x, 2 * b - y), True),
        (Isometry.reflect_v(a), lambda x, y: (2 * a - x, y), False),
        (Isometry.glide_h(b, (s, 0)), lambda x, y: (x + s, 2 * b - y), True),
        (Isometry.glide_v(a, (0, s)), lambda x, y: (2 * a - x, y + s), False),
    ]
    for iso, formula, flips in formulas:
        assert iso.flips_orientation is flips
        for c in cells:
            assert iso.map_cell(c) == formula(*c), (iso.kind, c)


def test_is_symmetry_translate():
    rng = random.Random(3)
    for _ in range(20):
        p = random_pattern(rng)
        assert is_symmetry(p, Isometry.translate(p.t))


def test_is_symmetry_reflect_h_single_orientation_false():
    p = make_pattern([piece((0, 0))], (2, 0))
    assert not is_symmetry(p, Isometry.reflect_h(0.0))


def test_is_symmetry_reflect_v_lone_piece():
    p = make_pattern([piece((0, 0))], (2, 0))
    assert is_symmetry(p, Isometry.reflect_v(0.0))


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


def test_detect_brute_force_cross_check():
    # independent check: exhaustively test every candidate isometry in a
    # small parameter window against three mixed patterns
    rng = random.Random(41)
    for _ in range(12):
        p = random_pattern(rng, max_pieces=4, span=2, tmax=3)
        if p.t[1] != 0:
            continue
        T = p.t[0]
        ys = [c[1] for c in p.cells()]
        flags = detect_symmetries(p)
        brute_h = brute_v = brute_g = brute_r = False
        for ax2 in range(2 * min(ys) - 4, 2 * max(ys) + 5):
            if is_symmetry(p, Isometry.reflect_h(ax2 / 2)):
                brute_h = True
        for ax2 in range(-2 * T, 4 * T):
            if is_symmetry(p, Isometry.reflect_v(ax2 / 2)):
                brute_v = True
        if T % 2 == 0 and not brute_h:
            for ay2 in range(2 * min(ys) - 4, 2 * max(ys) + 5):
                if is_symmetry(p, Isometry.glide_h(ay2 / 2, (T // 2, 0))):
                    brute_g = True
        for cx2 in range(-2 * T, 4 * T):
            for cy2 in range(2 * min(ys) - 4, 2 * max(ys) + 5):
                if is_symmetry(p, Isometry.rotate180((cx2 / 2, cy2 / 2))):
                    brute_r = True
        assert (flags.h, flags.v, flags.g, flags.r) == \
               (brute_h, brute_v, brute_g, brute_r)


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
    sigmas = [Isometry.reflect_h(0.5), Isometry.reflect_v(1.0),
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
            assert is_symmetry(d, w)


def test_classifier_total():
    rng = random.Random(53)
    for _ in range(60):
        assert classify_frieze(random_pattern(rng)) in FriezeGroup


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
