"""Lattice isometries, symmetry detection and frieze-group classification.

The isometry alphabet is the one relevant to one-directional patterns with
an up/down piece alphabet: translations, 180-degree rotations, horizontal
and vertical reflections, and horizontal and vertical glide reflections.
Axis and center coordinates live on the half-integer grid so integer cells
map to integer cells.

Reflections about diagonal axes are excluded: they would map up/down
pieces to sideways ones, which do not exist.  Every other isometry has a
linear part S = diag(+-1, +-1), and it can map a frieze onto itself only if
S t = +-t.  A horizontal or a vertical minimal translation therefore
admits mirrors and glides (for a vertical t the mirror along t has a
vertical axis), while any other translation admits only rotations and
always classifies as p1 or p2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable

from .geometry import (Vec, add, canonical_sign, dot, neg, reduce_cell, scale,
                       sub)
from .pattern import (PatternError, PeriodicPattern, PlacedPiece,
                      canonicalize, make_pattern)


class IsometryKind(enum.Enum):
    TRANSLATE = "translate"
    ROTATE180 = "rotate180"
    REFLECT_H = "reflect_h"
    REFLECT_V = "reflect_v"
    GLIDE_H = "glide_h"
    GLIDE_V = "glide_v"


_FLIPS_ORIENTATION = {
    IsometryKind.ROTATE180: True,
    IsometryKind.REFLECT_H: True,
    IsometryKind.GLIDE_H: True,
    IsometryKind.TRANSLATE: False,
    IsometryKind.REFLECT_V: False,
    IsometryKind.GLIDE_V: False,
}


def _half(value: float, what: str) -> float:
    if round(2 * value) != 2 * value:
        raise PatternError(f"{what} must lie on the half-integer grid")
    return float(value)


@dataclass(frozen=True)
class Isometry:
    """One lattice isometry.  Parameters by kind:

    TRANSLATE: shift;  ROTATE180: center;  REFLECT_H: axis y = axis_y;
    REFLECT_V: axis x = axis_x;  GLIDE_H: axis y = axis_y plus a nonzero
    horizontal integer shift;  GLIDE_V: axis x = axis_x plus a nonzero
    vertical integer shift.
    """
    kind: IsometryKind
    shift: Vec = (0, 0)
    center: tuple[float, float] = (0.0, 0.0)
    axis_x: float = 0.0
    axis_y: float = 0.0

    @staticmethod
    def translate(v: Vec) -> "Isometry":
        return Isometry(IsometryKind.TRANSLATE, shift=v)

    @staticmethod
    def rotate180(center: tuple[float, float]) -> "Isometry":
        cx = _half(center[0], "rotation center x")
        cy = _half(center[1], "rotation center y")
        return Isometry(IsometryKind.ROTATE180, center=(cx, cy))

    @staticmethod
    def reflect_h(axis_y: float) -> "Isometry":
        return Isometry(IsometryKind.REFLECT_H,
                        axis_y=_half(axis_y, "mirror axis"))

    @staticmethod
    def reflect_v(axis_x: float) -> "Isometry":
        return Isometry(IsometryKind.REFLECT_V,
                        axis_x=_half(axis_x, "mirror axis"))

    @staticmethod
    def glide_h(axis_y: float, shift: Vec) -> "Isometry":
        if shift[1] != 0 or shift[0] == 0:
            raise PatternError("glide shift must be horizontal and nonzero")
        return Isometry(IsometryKind.GLIDE_H, shift=shift,
                        axis_y=_half(axis_y, "glide axis"))

    @staticmethod
    def glide_v(axis_x: float, shift: Vec) -> "Isometry":
        if shift[0] != 0 or shift[1] == 0:
            raise PatternError("glide shift must be vertical and nonzero")
        return Isometry(IsometryKind.GLIDE_V, shift=shift,
                        axis_x=_half(axis_x, "glide axis"))

    def map_cell(self, c: Vec) -> Vec:
        k = self.kind
        if k is IsometryKind.TRANSLATE:
            return add(c, self.shift)
        if k is IsometryKind.ROTATE180:
            return (int(2 * self.center[0] - c[0]),
                    int(2 * self.center[1] - c[1]))
        if k is IsometryKind.REFLECT_H:
            return (c[0], int(2 * self.axis_y - c[1]))
        if k is IsometryKind.REFLECT_V:
            return (int(2 * self.axis_x - c[0]), c[1])
        if k is IsometryKind.GLIDE_V:
            return (int(2 * self.axis_x - c[0]), c[1] + self.shift[1])
        return (c[0] + self.shift[0], int(2 * self.axis_y - c[1]))

    def map_direction(self, d: Vec) -> Vec:
        """Linear part applied to a displacement (for decorations and t)."""
        k = self.kind
        if k is IsometryKind.TRANSLATE:
            return d
        if k is IsometryKind.ROTATE180:
            return neg(d)
        if k in (IsometryKind.REFLECT_V, IsometryKind.GLIDE_V):
            return (-d[0], d[1])
        return (d[0], -d[1])

    @property
    def flips_orientation(self) -> bool:
        return _FLIPS_ORIENTATION[self.kind]


class FriezeGroup(enum.Enum):
    P1 = "p1"
    P11G = "p11g"
    P1M1 = "p1m1"
    P11M = "p11m"
    P2 = "p2"
    P2MG = "p2mg"
    P2MM = "p2mm"

    @property
    def label(self) -> str:
        return self.value


def apply(sigma: Isometry, p: PeriodicPattern) -> PeriodicPattern:
    """Transform a pattern; orientations flip under rotation, horizontal
    reflection and horizontal glide; decorations follow the linear part."""
    pieces = []
    for piece in p.pieces:
        cell = sigma.map_cell(piece.cell)
        o = (piece.orientation.flipped if sigma.flips_orientation
             else piece.orientation)
        deco = (sigma.map_direction(piece.decoration)
                if piece.decoration is not None else None)
        pieces.append(PlacedPiece(cell, piece.kind, o, deco))
    return make_pattern(pieces, sigma.map_direction(p.t))


def is_symmetry(p: PeriodicPattern, sigma: Isometry) -> bool:
    p = canonicalize(p)
    return apply(sigma, p) == p


@dataclass(frozen=True)
class SymmetryFlags:
    """Which symmetry types the pattern has, named by their role relative
    to t: h a mirror whose axis runs along t, v a mirror across t, g a
    glide along t, r a 180-degree rotation."""
    h: bool
    v: bool
    g: bool
    r: bool
    witnesses: tuple[Isometry, ...]


# Linear parts diag(sx, sy) of the isometries that keep pieces upright.
_LINEAR_PARTS: tuple[Vec, ...] = ((-1, -1), (1, -1), (-1, 1))

_WITNESS_ORDER = {IsometryKind.REFLECT_H: 0, IsometryKind.REFLECT_V: 1,
                  IsometryKind.GLIDE_H: 2, IsometryKind.GLIDE_V: 3,
                  IsometryKind.ROTATE180: 4}


def _listed_offsets(S: Vec, o: Vec, t: Vec) -> list[Vec]:
    """The offsets o + k*t (k integer) of c -> S c + o that ``classify``
    lists: rotations and mirrors across t once per period of their
    parameter (projection of o on t in [0, 2 t.t), they repeat every t/2),
    the mirror along t with zero projection and the glide along t with
    half a period of shift.  S t = -t for the first two, S t = t for the
    others."""
    tt = dot(t, t)
    along = dot(o, t)
    if (S[0] * t[0], S[1] * t[1]) != t:
        k = -(along // tt)
        return [add(o, scale(t, k)), add(o, scale(t, k + 1))]
    if along % tt == 0:
        return [add(o, scale(t, -along // tt))]
    if 2 * along % tt == 0:
        return [add(o, scale(t, (tt // 2 - along) // tt))]
    return []


def _witness(S: Vec, o: Vec, t: Vec) -> tuple[Isometry, str]:
    """The symmetry c -> S c + o as an isometry, with its flag.  Squared, a
    symmetry is a translation by a multiple of t, so a mirror across t
    shifts nothing along its axis, and a shift along t makes a glide."""
    if S == (-1, -1):
        return Isometry.rotate180((o[0] / 2, o[1] / 2)), "r"
    flag = "h" if (S[0] * t[0], S[1] * t[1]) == t else "v"
    if S == (1, -1):  # horizontal axis y = o[1] / 2
        if o[0] == 0:
            return Isometry.reflect_h(o[1] / 2), flag
        return Isometry.glide_h(o[1] / 2, (o[0], 0)), "g"
    if o[1] == 0:  # vertical axis x = o[0] / 2
        return Isometry.reflect_v(o[0] / 2), flag
    return Isometry.glide_v(o[0] / 2, (0, o[1])), "g"


def detect_symmetries(p: PeriodicPattern) -> SymmetryFlags:
    """Presence of a mirror along t, a mirror across t, a glide along t and
    a 180-degree rotation, with concrete witnesses.

    A symmetry c -> S c + o keeps pieces upright only if S = diag(+-1, +-1),
    and maps the frieze onto itself only if S t = +-t.  It maps the first
    piece onto some piece j, so o = c_j - S c_0 modulo t: each piece names
    at most two listed candidates per S, each tested with one class-map
    lookup per piece.  The cost depends on the motif only, not on |t|.
    """
    p = canonicalize(p)
    t = p.t
    by_class = p.class_map()
    first = p.pieces[0].cell
    witnesses: list[Isometry] = []
    found: set[str] = set()
    for S in _LINEAR_PARTS:
        if (S[0] * t[0], S[1] * t[1]) not in (t, neg(t)):
            continue
        image = (S[0] * first[0], S[1] * first[1])
        for piece in p.pieces:
            for o in _listed_offsets(S, sub(piece.cell, image), t):
                if _maps_onto(by_class, S, o, t):
                    witness, flag = _witness(S, o, t)
                    witnesses.append(witness)
                    found.add(flag)
    witnesses.sort(key=lambda w: (_WITNESS_ORDER[w.kind], w.axis_x,
                                  w.axis_y, w.center, w.shift))
    return SymmetryFlags("h" in found, "v" in found, "g" in found,
                         "r" in found, tuple(witnesses))


def _maps_onto(by_class: dict[Vec, PlacedPiece], S: Vec, o: Vec,
               t: Vec) -> bool:
    """Does c -> S c + o map every piece onto a piece of the same kind,
    turned over when S flips y, with its decoration mapped by S?"""
    flips = S[1] < 0
    for (x, y), piece in by_class.items():
        hit = by_class.get(reduce_cell((S[0] * x + o[0], S[1] * y + o[1]), t))
        if hit is None or hit.kind != piece.kind:
            return False
        if (hit.orientation is piece.orientation) == flips:
            return False
        deco = piece.decoration
        if hit.decoration != (None if deco is None
                              else (S[0] * deco[0], S[1] * deco[1])):
            return False
    return True


def group_of(flags: SymmetryFlags) -> FriezeGroup:
    """Decision table over the detected symmetry flags."""
    h, v, g, r = flags.h, flags.v, flags.g, flags.r
    if h and v:
        if not r:
            raise AssertionError("h and v imply a rotation")
        return FriezeGroup.P2MM
    if h:
        if r:
            raise AssertionError("h with rotation implies v")
        return FriezeGroup.P11M
    if v and r:
        return FriezeGroup.P2MG
    if v:
        return FriezeGroup.P1M1
    if r:
        if g:
            raise AssertionError("rotation with glide implies v")
        return FriezeGroup.P2
    if g:
        return FriezeGroup.P11G
    return FriezeGroup.P1


def classify_frieze(p: PeriodicPattern) -> FriezeGroup:
    return group_of(detect_symmetries(p))


def generate_from_recipe(basic: Iterable[PlacedPiece], group: FriezeGroup,
                         period: Vec, *, axis_x: float = -0.5,
                         axis_y: float = -0.5,
                         center: tuple[float, float] = (-0.5, -0.5),
                         ) -> PeriodicPattern:
    """Close a basic motif under the group's generators.

    Generators are picked by their role relative to the period, as
    ``detect_symmetries`` names them: a mirror along t, a mirror across t,
    and a glide along t by half of t.  A horizontal axis lies at
    ``axis_y`` and a vertical one at ``axis_x``, so for a vertical period
    the mirror along t is the vertical axis x = ``axis_x``.  The returned
    pattern is canonical; if the basic motif carries accidental symmetry
    the classified group may be a proper supergroup of ``group``.
    """
    period = canonical_sign(period)
    if period == (0, 0):
        raise PatternError("zero period")
    along = group in (FriezeGroup.P11M, FriezeGroup.P2MM)
    across = group in (FriezeGroup.P1M1, FriezeGroup.P2MG, FriezeGroup.P2MM)
    glide = group in (FriezeGroup.P11G, FriezeGroup.P2MG)
    if (along or across or glide) and 0 not in period:
        raise PatternError(
            f"{group.label} requires a horizontal or vertical period")
    horizontal = period[1] == 0

    gens: list[Isometry] = []
    if glide:
        length = period[0] + period[1]
        if length % 2 != 0:
            raise PatternError(f"{group.label} requires an even period")
        gens.append(Isometry.glide_h(axis_y, (length // 2, 0)) if horizontal
                    else Isometry.glide_v(axis_x, (0, length // 2)))
    if across:
        gens.append(Isometry.reflect_v(axis_x) if horizontal
                    else Isometry.reflect_h(axis_y))
    if along:
        gens.append(Isometry.reflect_h(axis_y) if horizontal
                    else Isometry.reflect_v(axis_x))
    if group is FriezeGroup.P2:
        gens.append(Isometry.rotate180(center))

    by_class: dict[Vec, PlacedPiece] = {}

    def insert(piece: PlacedPiece) -> bool:
        cls = reduce_cell(piece.cell, period)
        moved = replace(piece, cell=cls)
        prev = by_class.get(cls)
        if prev is None:
            by_class[cls] = moved
            return True
        if prev.attrs() != moved.attrs():
            raise PatternError(f"recipe orbit collision in class {cls}")
        return False

    for piece in basic:
        insert(piece)

    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > 64:
            raise PatternError("recipe closure did not stabilize")
        for sigma in gens:
            for piece in list(by_class.values()):
                cell = sigma.map_cell(piece.cell)
                o = (piece.orientation.flipped if sigma.flips_orientation
                     else piece.orientation)
                deco = (sigma.map_direction(piece.decoration)
                        if piece.decoration is not None else None)
                if insert(PlacedPiece(cell, piece.kind, o, deco)):
                    changed = True

    return make_pattern(by_class.values(), period)
