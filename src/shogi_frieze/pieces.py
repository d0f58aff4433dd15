"""Piece kinds, orientations and movesets.

Movesets are given in the Up frame: single-square steps plus ride (sliding)
directions, each ride direction a unit chebyshev vector.  The Down frame is
the full 180-degree rotation of the Up frame.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .geometry import Vec, is_unit, neg


class Orientation(enum.Enum):
    UP = "up"
    DOWN = "down"

    @property
    def flipped(self) -> "Orientation":
        return Orientation.DOWN if self is Orientation.UP else Orientation.UP


class UnknownKindError(KeyError):
    """Raised when the moveset of a kind built from a nonstandard name alone
    is read."""


class MovesetError(ValueError):
    """Raised for malformed movesets (zero displacement, non-unit ride)."""


@dataclass(frozen=True)
class Moveset:
    steps: frozenset[Vec]
    rides: frozenset[Vec]

    def __post_init__(self) -> None:
        if (0, 0) in self.steps or (0, 0) in self.rides:
            raise MovesetError("(0,0) is not a legal displacement")
        for d in self.rides:
            if not is_unit(d):
                raise MovesetError(f"ride direction {d} is not a unit vector")

    def rotated(self) -> "Moveset":
        """180-degree rotation: negate both components of every entry."""
        return Moveset(frozenset(neg(d) for d in self.steps),
                       frozenset(neg(d) for d in self.rides))


def moveset(steps: Iterable[Vec] = (), rides: Iterable[Vec] = ()) -> Moveset:
    return Moveset(frozenset(steps), frozenset(rides))


_STANDARD_MOVESETS: dict[str, Moveset] = {
    "pawn": moveset(steps=[(0, 1)]),
    "lance": moveset(rides=[(0, 1)]),
    "knight": moveset(steps=[(-1, 2), (1, 2)]),
    "silver": moveset(steps=[(0, 1), (1, 1), (-1, 1), (1, -1), (-1, -1)]),
    "gold": moveset(steps=[(0, 1), (1, 1), (-1, 1), (1, 0), (-1, 0), (0, -1)]),
    "bishop": moveset(rides=[(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    "rook": moveset(rides=[(1, 0), (-1, 0), (0, 1), (0, -1)]),
    "king": moveset(steps=[(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                           if (dx, dy) != (0, 0)]),
}


@dataclass(frozen=True)
class PieceKind:
    """A piece kind as a value: a name and its Up-frame moveset.  Equality
    and hash cover both, so one name with two movesets gives two kinds.  A
    standard name given alone gets its standard moveset; any other name
    given alone has none, and reading it raises ``UnknownKindError``.  The
    Down moveset is built once, with the kind."""

    name: str
    _up: Optional[Moveset] = None
    _down: Optional[Moveset] = field(default=None, init=False, compare=False)

    def __post_init__(self) -> None:
        up = (_STANDARD_MOVESETS.get(self.name) if self._up is None
              else self._up)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_down", None if up is None else up.rotated())

    @property
    def moveset(self) -> Moveset:
        """The Up-frame moveset."""
        return self.oriented(Orientation.UP)

    def oriented(self, o: Orientation) -> Moveset:
        """The moveset of a piece of this kind facing ``o``."""
        m = self._up if o is Orientation.UP else self._down
        if m is None:
            raise UnknownKindError(f"kind {self.name!r} has no moveset")
        return m

    def __repr__(self) -> str:
        return f"PieceKind({self.name!r})"


PAWN = PieceKind("pawn")
LANCE = PieceKind("lance")
KNIGHT = PieceKind("knight")
SILVER = PieceKind("silver")
GOLD = PieceKind("gold")
BISHOP = PieceKind("bishop")
ROOK = PieceKind("rook")
KING = PieceKind("king")

STANDARD_KINDS: tuple[PieceKind, ...] = (
    PAWN, LANCE, KNIGHT, SILVER, GOLD, BISHOP, ROOK, KING,
)

KIND_LETTERS = {
    PAWN: "P", LANCE: "L", KNIGHT: "N", SILVER: "S",
    GOLD: "G", BISHOP: "B", ROOK: "R", KING: "K",
}


# Moveset variants used by the fragility experiments.

def reverse_chariot_moveset() -> Moveset:
    return moveset(rides=[(0, 1), (0, -1)])


def sideways_silver_moveset() -> Moveset:
    return Moveset(SILVER.moveset.steps | {(1, 0), (-1, 0)}, frozenset())


def chess_knight_moveset() -> Moveset:
    return moveset(steps=[(1, 2), (-1, 2), (1, -2), (-1, -2),
                          (2, 1), (-2, 1), (2, -1), (-2, -1)])
