"""Infinite one-directionally-periodic piece patterns.

A pattern is a finite motif of placed pieces plus a nonzero integer
translation vector t; the full pattern is the union of all t-translates.
Canonical form: every motif cell is the class representative produced by
``reduce_cell``, t has canonical sign and is minimal (no proper divisor of
t leaves the pattern invariant), and the motif tuple is sorted.

The module also defines the plain-text file format used by the CLI and the
committed crystal fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .geometry import (Vec, canonical_sign, dot, is_unit, neg, reduce_cell,
                       self_maps)
from .pieces import KIND_LETTERS, Orientation, PieceKind, moveset


class PatternError(ValueError):
    pass


class InconsistentMotifError(PatternError):
    """Two motif pieces share a translation class but disagree."""


class ParseError(PatternError):
    pass


@dataclass(frozen=True)
class PlacedPiece:
    cell: Vec
    kind: PieceKind
    orientation: Orientation
    decoration: Optional[Vec] = None

    def __post_init__(self) -> None:
        if self.decoration is not None and not is_unit(self.decoration):
            raise PatternError(f"decoration {self.decoration} is not a unit vector")

    def attrs(self) -> tuple:
        return (self.kind, self.orientation, self.decoration)


def _sort_key(p: PlacedPiece):
    return (p.cell, p.kind.name, p.orientation.value,
            p.decoration is not None, p.decoration or (0, 0))


@dataclass(frozen=True)
class PeriodicPattern:
    pieces: tuple[PlacedPiece, ...]
    t: Vec

    def class_map(self) -> dict[Vec, PlacedPiece]:
        return {p.cell: p for p in self.pieces}

    def cells(self) -> tuple[Vec, ...]:
        return tuple([p.cell for p in self.pieces])  # faster than a genexpr


def make_pattern(pieces: Iterable[PlacedPiece], t: Vec) -> PeriodicPattern:
    """Build and canonicalize a pattern from arbitrary piece placements."""
    return canonicalize(PeriodicPattern(tuple(pieces), t))


def _minimal_period(by_class: dict[Vec, PlacedPiece], t: Vec) -> Vec:
    """The shortest period of the reduced motif ``by_class``.

    Periods are the translation self-maps of its classes (``self_maps``)
    that keep every piece's attributes: multiples s*u of u = t / gcd(t),
    the least s > 0 the minimal period.  Such a period permutes the pieces
    with the first one's attributes in cycles of gcd(t) / s, so there is
    none when their count is prime to gcd(t).
    """
    g = math.gcd(abs(t[0]), abs(t[1]))
    attrs = [p.attrs() for p in by_class.values()]
    if math.gcd(g, attrs.count(attrs[0])) == 1:
        return t
    shifts = {dot(o, t) * g // dot(t, t) % g
              for o, perm in self_maps(t, list(by_class), (1, 1))
              if all(attrs[k] == a for a, k in zip(attrs, perm))}
    s = min(shifts - {0}, default=g)
    return (t[0] // g * s, t[1] // g * s)


def canonicalize(p: PeriodicPattern) -> PeriodicPattern:
    """Reduce motif cells, fix t's sign, and shrink t to the minimal period."""
    if not p.pieces:
        raise PatternError("empty motif")
    t = canonical_sign(p.t)
    if t == (0, 0):
        raise PatternError("zero translation vector")

    def reduce_all(pieces, t):
        by_class: dict[Vec, PlacedPiece] = {}
        for piece in pieces:
            cell = reduce_cell(piece.cell, t)
            moved = piece if cell == piece.cell else replace(piece, cell=cell)
            prev = by_class.get(cell)
            if prev is None:
                by_class[cell] = moved
            elif prev.attrs() != moved.attrs():
                raise InconsistentMotifError(
                    f"conflicting pieces in class {cell}")
        return by_class

    by_class = reduce_all(p.pieces, t)
    v = _minimal_period(by_class, t)
    if v != t:
        t = v
        by_class = reduce_all(by_class.values(), t)

    return PeriodicPattern(tuple(sorted(by_class.values(), key=_sort_key)), t)


def dual(p: PeriodicPattern) -> PeriodicPattern:
    """Swap the two orientations; decorations rotate 180 degrees."""
    out = []
    for piece in p.pieces:
        deco = neg(piece.decoration) if piece.decoration is not None else None
        out.append(replace(piece, orientation=piece.orientation.flipped,
                           decoration=deco))
    return PeriodicPattern(tuple(sorted(out, key=_sort_key)), p.t)


# ---------------------------------------------------------------------------
# Kind-free forms

@dataclass(frozen=True)
class Form:
    """The shape of a pattern: cells with orientations and decorations but
    no piece kinds."""
    cells: tuple[tuple[Vec, Orientation, Optional[Vec]], ...]
    t: Vec

    def instantiate(self, kind: PieceKind) -> PeriodicPattern:
        return make_pattern(
            (PlacedPiece(c, kind, o, d) for c, o, d in self.cells), self.t)

    def instantiate_kinds(self, kinds: Iterable[PieceKind]) -> PeriodicPattern:
        ks = list(kinds)
        if len(ks) != len(self.cells):
            raise PatternError("one kind per form cell required")
        return make_pattern(
            (PlacedPiece(c, k, o, d)
             for (c, o, d), k in zip(self.cells, ks)), self.t)


def form_of(p: PeriodicPattern) -> Form:
    return Form(tuple((x.cell, x.orientation, x.decoration) for x in p.pieces),
                p.t)


# ---------------------------------------------------------------------------
# Text file format
#
#   # comment
#   period: 3 0
#   origin: 0 0
#   kind: C reverse-chariot steps= rides=(0,1);(0,-1)
#   grid:
#   .. K^ ..
#   K^ .. ..
#   decor: 1 1 ne
#
# Grid rows are listed top row first; `origin` gives the board coordinates
# of the bottom-left grid cell.  Cell tokens are `..` (empty) or a kind
# letter followed by `^` (Up) or `v` (Down).

_DECOR_NAMES = {
    "n": (0, 1), "ne": (1, 1), "e": (1, 0), "se": (1, -1),
    "s": (0, -1), "sw": (-1, -1), "w": (-1, 0), "nw": (-1, 1),
}
_DECOR_CODES = {v: k for k, v in _DECOR_NAMES.items()}

_LETTER_TO_KIND = {v: k for k, v in KIND_LETTERS.items()}
_STANDARD_NAMES = {k.name for k in KIND_LETTERS}
_CUSTOM_LETTER_POOL = "ACDEFHIJMOQTUVWXYZ"


def _parse_vec_list(text: str) -> list[Vec]:
    text = text.strip()
    if not text:
        return []
    out = []
    for item in text.split(";"):
        item = item.strip()
        if not (item.startswith("(") and item.endswith(")")):
            raise ParseError(f"bad displacement {item!r}")
        a, _, b = item[1:-1].partition(",")
        try:
            out.append((int(a), int(b)))
        except ValueError as exc:
            raise ParseError(f"bad displacement {item!r}") from exc
    return out


def _vec(fields: list[str], lineno: int, what: str) -> Vec:
    """The two integers of a header line's ``fields``; anything else is
    ``line N: bad <what>``."""
    try:
        x, y = map(int, fields)
    except ValueError:
        raise ParseError(f"line {lineno}: bad {what}") from None
    return x, y


def _fmt_vec_list(vecs: Iterable[Vec]) -> str:
    return ";".join(f"({a},{b})" for a, b in sorted(vecs))


def parse(text: str) -> PeriodicPattern:
    """The pattern a file describes; a ``ParseError`` names the line at
    fault, except for a missing period header or grid."""
    period: Optional[Vec] = None  # read on line ``period_line``
    origin: Vec = (0, 0)
    letters = dict(_LETTER_TO_KIND)
    declared: dict[str, PieceKind] = {}
    grid_rows: list[tuple[int, list[str]]] = []  # (line, tokens)
    # cell -> (line, direction); the last line for a cell wins
    decors: dict[Vec, tuple[int, Vec]] = {}
    in_grid = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if in_grid and not stripped.startswith("decor:"):
            grid_rows.append((lineno, stripped.split(" ")))
            continue
        if stripped.startswith("period:"):
            period = _vec(stripped[len("period:"):].split(), lineno, "period")
            period_line = lineno
        elif stripped.startswith("origin:"):
            origin = _vec(stripped[len("origin:"):].split(), lineno, "origin")
        elif stripped.startswith("kind:"):
            parts = stripped[len("kind:"):].split()
            if len(parts) != 4 or not parts[2].startswith("steps=") \
                    or not parts[3].startswith("rides="):
                raise ParseError(f"line {lineno}: bad kind header")
            letter, name = parts[0], parts[1]
            if len(letter) != 1:
                raise ParseError(f"line {lineno}: kind letter must be one char")
            if letter in letters:
                raise ParseError(f"line {lineno}: letter {letter!r} taken")
            try:
                m = moveset(_parse_vec_list(parts[2][len("steps="):]),
                            _parse_vec_list(parts[3][len("rides="):]))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if name in _STANDARD_NAMES:
                raise ParseError(f"line {lineno}: {name!r} is a standard kind")
            kind = declared.setdefault(name, PieceKind(name, m))
            if kind.moveset != m:
                raise ParseError(
                    f"line {lineno}: kind {name!r} declared twice")
            letters[letter] = kind
        elif stripped == "grid:":
            in_grid = True
        elif stripped.startswith("decor:"):
            *xy, name = stripped[len("decor:"):].split() or [""]
            if name not in _DECOR_NAMES:
                raise ParseError(f"line {lineno}: bad decor line")
            decors[_vec(xy, lineno, "decor line")] = lineno, _DECOR_NAMES[name]
        else:
            raise ParseError(f"line {lineno}: unrecognized line {stripped!r}")

    if period is None:
        raise ParseError("missing period header")
    if period == (0, 0):
        raise ParseError(f"line {period_line}: zero period")
    if not grid_rows:
        raise ParseError("missing grid")

    # Each piece is built once, decorated and on its class, so that
    # make_pattern has nothing to move; it still merges or rejects two grid
    # cells of one class, and shrinks a non-minimal period.
    t = canonical_sign(period)
    pieces = []
    height = len(grid_rows)
    for i, (lineno, row) in enumerate(grid_rows):
        y = origin[1] + (height - 1 - i)
        for j, token in enumerate(row):
            if token == "..":
                continue
            if len(token) != 2 or token[1] not in "^v":
                raise ParseError(f"line {lineno}: bad cell token {token!r}")
            kind = letters.get(token[0])
            if kind is None:
                raise ParseError(
                    f"line {lineno}: unknown kind letter {token[0]!r}")
            o = Orientation.UP if token[1] == "^" else Orientation.DOWN
            cell = (origin[0] + j, y)
            _, deco = decors.pop(cell, (0, None))
            pieces.append(PlacedPiece(reduce_cell(cell, t), kind, o, deco))

    # the decor lines left name empty cells; report the first
    for cell, (lineno, _) in decors.items():
        raise ParseError(f"line {lineno}: decor on empty cell {cell}")

    return make_pattern(pieces, period)


def serialize(p: PeriodicPattern) -> str:
    """Canonical text form; byte-stable for golden tests (LF endings)."""
    p = canonicalize(p)
    xs = [c[0] for c in p.cells()]
    ys = [c[1] for c in p.cells()]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)

    # a name stands for one kind in a file, a standard name for its own
    kinds = {k.name: k for k in KIND_LETTERS}
    for pc in p.pieces:
        if kinds.setdefault(pc.kind.name, pc.kind) != pc.kind:
            raise PatternError(f"two kinds named {pc.kind.name!r}")
    custom = sorted(kinds.keys() - _STANDARD_NAMES)
    if len(custom) > len(_CUSTOM_LETTER_POOL):
        raise PatternError("too many custom kinds to serialize")
    assigned = dict(zip(custom, _CUSTOM_LETTER_POOL))

    lines = [f"period: {p.t[0]} {p.t[1]}", f"origin: {x0} {y0}"]
    for name, letter in assigned.items():
        m = kinds[name].moveset
        lines.append(f"kind: {letter} {name} "
                     f"steps={_fmt_vec_list(m.steps)} "
                     f"rides={_fmt_vec_list(m.rides)}")
    lines.append("grid:")
    by_cell = p.class_map()
    for y in range(y1, y0 - 1, -1):
        row = []
        for x in range(x0, x1 + 1):
            piece = by_cell.get((x, y))
            if piece is None:
                row.append("..")
            else:
                letter = (KIND_LETTERS.get(piece.kind)
                          or assigned[piece.kind.name])
                row.append(letter + ("^" if piece.orientation is Orientation.UP
                                     else "v"))
        lines.append(" ".join(row))
    for piece in p.pieces:
        if piece.decoration is not None:
            lines.append(f"decor: {piece.cell[0]} {piece.cell[1]} "
                         f"{_DECOR_CODES[piece.decoration]}")
    return "\n".join(lines) + "\n"
