import copy
import pickle

import pytest

from shogi_frieze import (BISHOP, GOLD, KING, KNIGHT, LANCE, PAWN, ROOK,
                          STANDARD_KINDS, Orientation, PieceKind,
                          UnknownKindError, moveset)
from shogi_frieze.pieces import (MovesetError, chess_knight_moveset,
                                 reverse_chariot_moveset,
                                 sideways_silver_moveset)
from conftest import has_horizontal_mirror_symmetry

UP, DOWN = Orientation.UP, Orientation.DOWN


def test_gold_moveset():
    m = GOLD.moveset
    assert m.steps == {(0, 1), (1, 1), (-1, 1), (1, 0), (-1, 0), (0, -1)}
    assert m.rides == frozenset()


def test_king_moveset():
    m = KING.moveset
    assert len(m.steps) == 8 and not m.rides


def test_lance_moveset():
    m = LANCE.moveset
    assert m.steps == frozenset() and m.rides == {(0, 1)}


def test_slider_rides():
    assert BISHOP.moveset.rides == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert ROOK.moveset.rides == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_oriented_down_examples():
    assert PAWN.oriented(DOWN).steps == {(0, -1)}
    assert KING.oriented(DOWN).steps == KING.oriented(UP).steps
    assert KNIGHT.oriented(DOWN).steps == {(1, -2), (-1, -2)}


def test_oriented_down_is_full_rotation():
    for kind in STANDARD_KINDS:
        up = kind.oriented(UP)
        down = kind.oriented(DOWN)
        assert down.steps == {(-dx, -dy) for dx, dy in up.steps}
        assert down.rides == {(-dx, -dy) for dx, dy in up.rides}
        # pure function: repeated calls agree
        assert kind.oriented(DOWN) == down


def test_mirror_symmetry_partition():
    symmetric = {k for k in STANDARD_KINDS
                 if has_horizontal_mirror_symmetry(k.moveset)}
    assert symmetric == {KING, ROOK, BISHOP}


def test_mirror_symmetry_custom():
    assert has_horizontal_mirror_symmetry(moveset(steps=[(0, 1), (0, -1)]))
    assert not has_horizontal_mirror_symmetry(moveset(steps=[(0, 1)]))


def test_kind_is_name_and_moveset():
    assert PieceKind("king") == KING
    assert hash(PieceKind("king")) == hash(KING)
    assert PieceKind("king", KING.moveset) == KING
    rc = PieceKind("lance", reverse_chariot_moveset())
    assert rc != LANCE and rc.name == LANCE.name
    assert rc.moveset.rides == {(0, 1), (0, -1)}
    ck = PieceKind("test-chess-knight", chess_knight_moveset())
    assert len(ck.moveset.steps) == 8
    assert ck == PieceKind("test-chess-knight", chess_knight_moveset())
    assert ck != PieceKind("test-chess-knight", moveset(steps=[(1, 0)]))


def test_custom_kind_without_moveset():
    unknown = PieceKind("never-declared")  # building it is fine
    assert unknown == PieceKind("never-declared")
    assert unknown != PieceKind("never-declared", moveset(steps=[(1, 0)]))
    with pytest.raises(UnknownKindError):
        unknown.moveset
    with pytest.raises(UnknownKindError):
        unknown.oriented(DOWN)


def test_kind_is_immutable():
    with pytest.raises(AttributeError):
        KING.name = "queen"


@pytest.mark.parametrize("kind", [
    KING, PieceKind("lance", reverse_chariot_moveset()),
    PieceKind("test-fairy", moveset(steps=[(1, 2)], rides=[(0, -1)])),
    PieceKind("never-declared"),
], ids=["king", "substituted", "custom", "no-moveset"])
def test_kind_is_a_value(kind):
    for other in (pickle.loads(pickle.dumps(kind)), copy.deepcopy(kind)):
        assert other == kind and hash(other) == hash(kind)
        assert repr(other) == repr(kind) == f"PieceKind({kind.name!r})"
        if kind.name != "never-declared":
            assert other.oriented(DOWN) == kind.oriented(DOWN)


def test_malformed_movesets():
    with pytest.raises(MovesetError):
        moveset(steps=[(0, 0)])
    with pytest.raises(MovesetError):
        moveset(rides=[(0, 2)])


def test_fragility_moveset_builders():
    assert sideways_silver_moveset().steps >= {(1, 0), (-1, 0)}
    assert has_horizontal_mirror_symmetry(reverse_chariot_moveset())
