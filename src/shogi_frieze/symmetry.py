"""Lattice isometries, symmetry detection and frieze-group classification.

An isometry is the affine map c -> S c + o with a linear part
S = diag(+-1, +-1) and an integer offset o.  S = 1 is a translation by o,
S = -1 a 180-degree rotation about o / 2, S = diag(1, -1) a mirror (o_x = 0)
or a glide (o_x != 0) with the horizontal axis y = o_y / 2, and
S = diag(-1, 1) a mirror or glide with the vertical axis x = o_x / 2.  Axes
and centers therefore lie on the half-integer grid and integer cells map to
integer cells.  A map turns a piece over when S flips y.

Reflections about diagonal axes are excluded: they would map up/down
pieces to sideways ones, which do not exist.  An isometry c -> S c + o can
map a frieze onto itself only if S t = +-t.  A horizontal or a vertical
minimal translation therefore admits mirrors and glides (for a vertical t
the mirror along t has a vertical axis), while any other translation admits
only rotations and always classifies as p1 or p2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable

from .geometry import (Vec, add, canonical_sign, dot, neg, reduce_cell, scale,
                       sub)
from .pattern import (PatternError, PeriodicPattern, PlacedPiece,
                      canonicalize, make_pattern, maps_onto)


class IsometryKind(enum.Enum):
    TRANSLATE = "translate"
    ROTATE180 = "rotate180"
    REFLECT_H = "reflect_h"
    REFLECT_V = "reflect_v"
    GLIDE_H = "glide_h"
    GLIDE_V = "glide_v"


def _twice(value: float, what: str) -> int:
    if round(2 * value) != 2 * value:
        raise PatternError(f"{what} must lie on the half-integer grid")
    return int(2 * value)


@dataclass(frozen=True)
class Isometry:
    """The lattice isometry c -> S c + o, with S = diag(*linear) and
    o = offset.  Its kind and parameters are read off the pair:

    TRANSLATE: shift;  ROTATE180: center;  REFLECT_H: axis y = axis_y;
    REFLECT_V: axis x = axis_x;  GLIDE_H: axis y = axis_y plus a nonzero
    horizontal integer shift;  GLIDE_V: axis x = axis_x plus a nonzero
    vertical integer shift.  A parameter of another kind reads as zero.
    """
    linear: Vec
    offset: Vec

    def __post_init__(self) -> None:
        if abs(self.linear[0]) != 1 or abs(self.linear[1]) != 1:
            raise PatternError(f"linear part {self.linear} is not +-1, +-1")

    @staticmethod
    def translate(v: Vec) -> "Isometry":
        return Isometry((1, 1), v)

    @staticmethod
    def rotate180(center: tuple[float, float]) -> "Isometry":
        return Isometry((-1, -1), (_twice(center[0], "rotation center x"),
                                   _twice(center[1], "rotation center y")))

    @staticmethod
    def reflect_h(axis_y: float) -> "Isometry":
        return Isometry((1, -1), (0, _twice(axis_y, "mirror axis")))

    @staticmethod
    def reflect_v(axis_x: float) -> "Isometry":
        return Isometry((-1, 1), (_twice(axis_x, "mirror axis"), 0))

    @staticmethod
    def glide_h(axis_y: float, shift: Vec) -> "Isometry":
        if shift[1] != 0 or shift[0] == 0:
            raise PatternError("glide shift must be horizontal and nonzero")
        return Isometry((1, -1), (shift[0], _twice(axis_y, "glide axis")))

    @staticmethod
    def glide_v(axis_x: float, shift: Vec) -> "Isometry":
        if shift[0] != 0 or shift[1] == 0:
            raise PatternError("glide shift must be vertical and nonzero")
        return Isometry((-1, 1), (_twice(axis_x, "glide axis"), shift[1]))

    @property
    def kind(self) -> IsometryKind:
        K = IsometryKind
        sx, sy = self.linear
        if sx == sy:
            return K.TRANSLATE if sx > 0 else K.ROTATE180
        if sy < 0:
            return K.GLIDE_H if self.offset[0] else K.REFLECT_H
        return K.GLIDE_V if self.offset[1] else K.REFLECT_V

    @property
    def axis_x(self) -> float:
        return self.offset[0] / 2 if self.linear == (-1, 1) else 0.0

    @property
    def axis_y(self) -> float:
        return self.offset[1] / 2 if self.linear == (1, -1) else 0.0

    @property
    def center(self) -> tuple[float, float]:
        if self.linear != (-1, -1):
            return (0.0, 0.0)
        return (self.offset[0] / 2, self.offset[1] / 2)

    @property
    def shift(self) -> Vec:
        """The offset along the directions S fixes."""
        (sx, sy), (ox, oy) = self.linear, self.offset
        return (ox if sx > 0 else 0, oy if sy > 0 else 0)

    def map_cell(self, c: Vec) -> Vec:
        return (self.linear[0] * c[0] + self.offset[0],
                self.linear[1] * c[1] + self.offset[1])

    def map_direction(self, d: Vec) -> Vec:
        """Linear part applied to a displacement (for decorations and t)."""
        return (self.linear[0] * d[0], self.linear[1] * d[1])

    @property
    def flips_orientation(self) -> bool:
        return self.linear[1] < 0

    def image(self, piece: PlacedPiece) -> PlacedPiece:
        """The piece moved: its cell mapped, turned over when S flips y,
        its decoration mapped by the linear part."""
        o = piece.orientation
        deco = piece.decoration
        return PlacedPiece(self.map_cell(piece.cell), piece.kind,
                           o.flipped if self.flips_orientation else o,
                           None if deco is None else self.map_direction(deco))


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
    """Transform a pattern piece by piece (``Isometry.image``); t follows
    the linear part."""
    return make_pattern(map(sigma.image, p.pieces), sigma.map_direction(p.t))


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


# Linear parts diag(sx, sy) of the isometries other than translations.
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


def _flag(sigma: Isometry, t: Vec) -> str:
    """The role of a symmetry relative to t.  Squared, a symmetry is a
    translation by a multiple of t, so a mirror across t shifts nothing
    along its axis, and a shift along t makes a glide."""
    if sigma.linear == (-1, -1):
        return "r"
    if sigma.shift != (0, 0):
        return "g"
    return "h" if sigma.map_direction(t) == t else "v"


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
                if maps_onto(by_class, S, o, t):
                    witness = Isometry(S, o)
                    witnesses.append(witness)
                    found.add(_flag(witness, t))
    witnesses.sort(key=lambda w: (_WITNESS_ORDER[w.kind], w.axis_x,
                                  w.axis_y, w.center, w.shift))
    return SymmetryFlags("h" in found, "v" in found, "g" in found,
                         "r" in found, tuple(witnesses))


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
    work = list(basic)
    while work:
        piece = work.pop()
        cls = reduce_cell(piece.cell, period)
        prev = by_class.get(cls)
        if prev is None:
            by_class[cls] = moved = replace(piece, cell=cls)
            work.extend(sigma.image(moved) for sigma in gens)
        elif prev.attrs() != piece.attrs():
            raise PatternError(f"recipe orbit collision in class {cls}")

    return make_pattern(by_class.values(), period)
