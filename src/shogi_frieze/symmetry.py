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
from typing import Iterable, Optional

from .geometry import (Vec, add, canonical_sign, dot, neg, reduce_cell, scale,
                       self_maps)
from .pattern import (PatternError, PeriodicPattern, PlacedPiece,
                      canonicalize, make_pattern)


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
    def rotate180(center: tuple[float, float]) -> "Isometry":
        return Isometry((-1, -1), (_twice(center[0], "rotation center x"),
                                   _twice(center[1], "rotation center y")))

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


# The symmetry roles each group has, named as ``SymmetryFlags`` names them.
# No other combination occurs: any two roles compose to a third (a mirror
# along t and one across t to a rotation, say), and a mirror and a glide
# along t would compose to a translation by t/2.
GROUP_ROLES: dict[FriezeGroup, str] = {
    FriezeGroup.P1: "",
    FriezeGroup.P11G: "g",
    FriezeGroup.P1M1: "v",
    FriezeGroup.P11M: "h",
    FriezeGroup.P2: "r",
    FriezeGroup.P2MG: "vgr",
    FriezeGroup.P2MM: "hvr",
}


def role_linear_part(role: str, t: Vec) -> Optional[Vec]:
    """The linear part S of a symmetry with ``role`` on translation t:
    S t = t for a mirror or a glide along t, S t = -t for a mirror across
    t or a rotation.  None when no S = diag(+-1, +-1) other than +-1 fits,
    which is the case for a mirror or a glide on a t off both axes."""
    if role == "r":
        return (-1, -1)
    if 0 not in t:
        return None
    along = (1, -1) if t[1] == 0 else (-1, 1)
    return neg(along) if role == "v" else along


# Linear parts diag(sx, sy) of the isometries other than translations.
_LINEAR_PARTS: tuple[Vec, ...] = ((-1, -1), (1, -1), (-1, 1))

_WITNESS_ORDER = {IsometryKind.REFLECT_H: 0, IsometryKind.REFLECT_V: 1,
                  IsometryKind.GLIDE_H: 2, IsometryKind.GLIDE_V: 3,
                  IsometryKind.ROTATE180: 4}


def _role(S: Vec, o: Vec, t: Vec) -> tuple[Optional[str], list[Vec]]:
    """The role relative to t of the self-map c -> S c + o (S not 1,
    S t = +-t) and the offsets o + k*t that ``classify`` lists for it, or
    (None, []) when no frieze with period t has it as a symmetry.  S t = -t:
    a rotation (r) or a mirror across t (v), listed with o's projection on
    t in [0, 2 t.t), as they repeat every t/2.  S t = t: it squares to a
    translation by twice that projection, a multiple of t, so the mirror
    along t (h) has none and the glide (g) half a period of shift."""
    tt = dot(t, t)
    along = dot(o, t)
    if (S[0] * t[0], S[1] * t[1]) != t:
        k = -(along // tt)
        return ("r" if S == (-1, -1) else "v",
                [add(o, scale(t, k)), add(o, scale(t, k + 1))])
    if along % tt == 0:
        return "h", [add(o, scale(t, -along // tt))]
    if 2 * along % tt == 0:
        return "g", [add(o, scale(t, (tt // 2 - along) // tt))]
    return None, []


def _carries(S: Vec, piece: PlacedPiece, hit: PlacedPiece) -> bool:
    """Does a map with the linear part S carry ``piece`` onto ``hit``: the
    same kind, turned over when S flips y, its decoration mapped by S?"""
    deco = piece.decoration
    return (hit.kind == piece.kind
            and (hit.orientation is piece.orientation) != (S[1] < 0)
            and hit.decoration == (None if deco is None
                                   else (S[0] * deco[0], S[1] * deco[1])))


def detect_symmetries(p: PeriodicPattern) -> SymmetryFlags:
    """Presence of a mirror along t, a mirror across t, a glide along t and
    a 180-degree rotation, with concrete witnesses.

    A symmetry c -> S c + o keeps pieces upright only if S = diag(+-1, +-1).
    It is a self-map of the pattern's classes (``self_maps``) that carries
    each piece onto its image (``_carries``), and is named and listed by
    ``_role``.  The cost depends on the motif only, not on |t|.
    """
    # a PeriodicPattern built directly need not be canonical; one that
    # canonicalize returned (from parse, make_pattern) comes back at once
    p = canonicalize(p)
    t, pieces, cells = p.t, p.pieces, p.cells()
    witnesses: list[Isometry] = []
    found: set[str] = set()
    for S in _LINEAR_PARTS:
        for o, perm in self_maps(t, cells, S):
            role, listed = _role(S, o, t)
            if role and all(_carries(S, x, pieces[k])
                            for x, k in zip(pieces, perm)):
                found.add(role)
                witnesses += [Isometry(S, w) for w in listed]
    witnesses.sort(key=lambda w: (_WITNESS_ORDER[w.kind], w.axis_x,
                                  w.axis_y, w.center, w.shift))
    return SymmetryFlags("h" in found, "v" in found, "g" in found,
                         "r" in found, tuple(witnesses))


# (h, v, g, r) -> the group with exactly those roles
_GROUP_OF_FLAGS = {tuple(r in roles for r in "hvgr"): group
                   for group, roles in GROUP_ROLES.items()}


def group_of(flags: SymmetryFlags) -> FriezeGroup:
    """The group whose roles (``GROUP_ROLES``) are exactly the flags."""
    group = _GROUP_OF_FLAGS.get((flags.h, flags.v, flags.g, flags.r))
    if group is None:
        raise AssertionError(f"no frieze group has the symmetry flags {flags}")
    return group


def classify_frieze(p: PeriodicPattern) -> FriezeGroup:
    return group_of(detect_symmetries(p))


def generate_from_recipe(basic: Iterable[PlacedPiece], group: FriezeGroup,
                         period: Vec, *, axis_x: float = -0.5,
                         axis_y: float = -0.5,
                         center: tuple[float, float] = (-0.5, -0.5),
                         ) -> PeriodicPattern:
    """Close a basic motif under the group's generators.

    Generators are the group's roles (``GROUP_ROLES``) relative to the
    period, as ``detect_symmetries`` names them: a mirror along t, a mirror
    across t, a glide along t by half of t, and for p2 a rotation about
    ``center`` (the other groups with a rotation get it as the product of
    their mirrors or glide).  A horizontal axis lies at
    ``axis_y`` and a vertical one at ``axis_x``, so for a vertical period
    the mirror along t is the vertical axis x = ``axis_x``.  The returned
    pattern is canonical; if the basic motif carries accidental symmetry
    the classified group may be a proper supergroup of ``group``.
    """
    period = canonical_sign(period)
    if period == (0, 0):
        raise PatternError("zero period")
    roles = GROUP_ROLES[group]
    gens: list[Isometry] = []
    for role in roles:
        S = role_linear_part(role, period)
        if S is None:
            raise PatternError(
                f"{group.label} requires a horizontal or vertical period")
        if role == "r":
            if roles == "r":  # otherwise the product of the other roles
                gens.append(Isometry.rotate180(center))
            continue
        offset = (_twice(axis_x, "axis") if S[0] < 0 else 0,
                  _twice(axis_y, "axis") if S[1] < 0 else 0)
        if role == "g":
            if sum(period) % 2 != 0:
                raise PatternError(f"{group.label} requires an even period")
            offset = add(offset, (period[0] // 2, period[1] // 2))
        gens.append(Isometry(S, offset))

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
