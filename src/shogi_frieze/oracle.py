"""Brute-force reference engine on a finite board.

Replicates a periodic pattern a fixed odd number of times, then recomputes
neighborhood, control, partition and verdict by walking cells directly,
and finds symmetries by trying every offset in a window.  Deliberately
shares no ray/flood, self-map or verdict code with the periodic engine;
it exists to differentially test it.  Results are read through a central
window holding exactly one representative per translation class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import countOf
from typing import Mapping, Optional

from .control import NccStatus, RegionClass, Verdict
from .geometry import Vec
from .pattern import PatternError, PeriodicPattern, PlacedPiece
from .pieces import Moveset, Orientation, PieceKind

# Up-frame movesets, by kind, that replace the kinds' own on the board.
Movesets = Optional[Mapping[PieceKind, Moveset]]

_MARGIN = 3

_EIGHT = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_FOUR = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class FiniteBoard:
    occupancy: dict[tuple[int, int], PlacedPiece]
    xlo: int
    xhi: int
    ylo: int
    yhi: int
    t: tuple[int, int]

    def in_bounds(self, x: int, y: int) -> bool:
        return self.xlo <= x <= self.xhi and self.ylo <= y <= self.yhi


def sufficient_copies(p: PeriodicPattern) -> int:
    """Smallest odd copy count (at least 9) whose stamped extent covers
    every sliding interaction that can reach the central window.

    A ray either cycles through the quotient classes (at most t.t steps
    once parallel to t) or drifts across the occupied band and is free
    after (band width + 2) steps, so rays longer than that never matter.
    """
    tx, ty = p.t
    qs = [c[0] * ty - c[1] * tx for c in p.cells()]
    band = max(qs) - min(qs)
    tt = tx * tx + ty * ty
    max_ray = max(tt, band + 2) + 1
    xs = [c[0] for c in p.cells()]
    ys = [c[1] for c in p.cells()]
    diam = max(max(xs) - min(xs), max(ys) - min(ys))
    per_side = (max_ray + diam + 2) // max(abs(tx), abs(ty)) + 2
    return max(9, 2 * per_side + 1)


def replicate(p: PeriodicPattern, copies: int) -> FiniteBoard:
    """Stamp the motif at k*t for k in [-(copies-1)/2, +(copies-1)/2]."""
    if copies % 2 == 0 or copies < 9:
        raise PatternError("copies must be odd and at least 9")
    half = (copies - 1) // 2
    occ: dict[tuple[int, int], PlacedPiece] = {}
    for k in range(-half, half + 1):
        for piece in p.pieces:
            cell = (piece.cell[0] + k * p.t[0], piece.cell[1] + k * p.t[1])
            occ[cell] = PlacedPiece(cell, piece.kind, piece.orientation,
                                    piece.decoration)
    xs = [c[0] for c in occ]
    ys = [c[1] for c in occ]
    return FiniteBoard(occ, min(xs) - _MARGIN, max(xs) + _MARGIN,
                       min(ys) - _MARGIN, max(ys) + _MARGIN, p.t)


def _board_moveset(piece: PlacedPiece,
                   overrides: Movesets) -> Moveset:
    if overrides is not None and piece.kind in overrides:
        m = overrides[piece.kind]
        return m if piece.orientation is Orientation.UP else m.rotated()
    return piece.kind.oriented(piece.orientation)


def brute_control(b: FiniteBoard,
                  overrides: Movesets = None) -> set[tuple[int, int]]:
    """Squares any piece can move to, rays walked square by square until a
    blocker or the board edge."""
    out: set[tuple[int, int]] = set()
    for cell, piece in b.occupancy.items():
        m = _board_moveset(piece, overrides)
        for dx, dy in m.steps:
            tx, ty = cell[0] + dx, cell[1] + dy
            target = b.occupancy.get((tx, ty))
            if target is not None and target.orientation is piece.orientation:
                continue
            out.add((tx, ty))
        for dx, dy in m.rides:
            tx, ty = cell[0] + dx, cell[1] + dy
            while b.in_bounds(tx, ty):
                target = b.occupancy.get((tx, ty))
                if target is not None:
                    if target.orientation is not piece.orientation:
                        out.add((tx, ty))
                    break
                out.add((tx, ty))
                tx, ty = tx + dx, ty + dy
    return out


def brute_neighborhood(b: FiniteBoard) -> set[tuple[int, int]]:
    out = set()
    for (x, y) in b.occupancy:
        for dx, dy in _EIGHT:
            out.add((x + dx, y + dy))
    return out


def brute_partition(b: FiniteBoard) -> dict[tuple[int, int], RegionClass]:
    """Base = occupied neighborhood squares; inside = empty neighborhood
    squares whose empty 4-component never reaches the board edge."""
    nbhd = brute_neighborhood(b)
    result: dict[tuple[int, int], RegionClass] = {}
    known: dict[tuple[int, int], bool] = {}
    for cell in nbhd:
        if cell in b.occupancy:
            result[cell] = RegionClass.BASE
    for cell in nbhd:
        if cell in result:
            continue
        if cell in known:
            result[cell] = (RegionClass.INSIDE if known[cell]
                            else RegionClass.OUTSIDE)
            continue
        component = set()
        stack = [cell]
        bounded = True
        while stack:
            cur = stack.pop()
            if cur in component:
                continue
            component.add(cur)
            if not (b.xlo < cur[0] < b.xhi and b.ylo < cur[1] < b.yhi):
                bounded = False
                break
            for dx, dy in _FOUR:
                nxt = (cur[0] + dx, cur[1] + dy)
                if nxt not in b.occupancy and nxt not in component:
                    stack.append(nxt)
        for c in component:
            known[c] = bounded
        result[cell] = (RegionClass.INSIDE if bounded else RegionClass.OUTSIDE)
    return result


def window_cells(b: FiniteBoard) -> set[tuple[int, int]]:
    """Cells of the central window: one representative per class, near the
    occupied band.  Membership is computed with plain arithmetic."""
    tx, ty = b.t
    tt = tx * tx + ty * ty
    qs = [x * ty - y * tx for (x, y) in b.occupancy]
    qlo, qhi = min(qs), max(qs)
    reach = (abs(tx) + abs(ty)) * 2
    out = set()
    for x in range(b.xlo, b.xhi + 1):
        for y in range(b.ylo, b.yhi + 1):
            if 0 <= x * tx + y * ty < tt and \
                    qlo - reach <= x * ty - y * tx <= qhi + reach:
                out.add((x, y))
    return out


def _verdict_from_parts(regions: Mapping[Vec, RegionClass],
                        uncontrolled: frozenset[Vec]) -> NccStatus:
    """The reference verdict rule, on sets.  ``regions`` maps each
    neighborhood cell to its region; ``uncontrolled`` is the subset of
    them that no piece controls.

    Complete: nothing is uncontrolled.  Nearly complete: some neighborhood
    cell is controlled and the uncontrolled set equals exactly one
    nonempty region (base, inside, or outside).  Anything else fails, with
    the least uncontrolled cell as witness.
    """
    if not uncontrolled:
        return NccStatus(Verdict.COMPLETE, uncontrolled=uncontrolled)
    if len(uncontrolled) < len(regions):
        region = regions[next(iter(uncontrolled))]
        if (all(regions[c] is region for c in uncontrolled)
                and countOf(regions.values(), region) == len(uncontrolled)):
            return NccStatus(Verdict.NEARLY_COMPLETE,
                             uncontrolled_class=region,
                             uncontrolled=uncontrolled)
    return NccStatus(Verdict.FAILS, witness=min(uncontrolled),
                     uncontrolled=uncontrolled)


def brute_ncc(b: FiniteBoard,
              overrides: Movesets = None) -> NccStatus:
    """Verdict computed from window-restricted neighborhood cells."""
    window = window_cells(b)
    nbhd = brute_neighborhood(b) & window
    partition = {c: r for c, r in brute_partition(b).items() if c in window}
    control = brute_control(b, overrides)
    return _verdict_from_parts(partition, frozenset(nbhd - control))


def brute_symmetries(b: FiniteBoard) -> dict[tuple[Vec, Vec], str]:
    """Every map c -> S c + o, S = diag(+-1, +-1) and o in a window, that
    sends each piece of the board's middle third (along t) onto a piece of
    the same kind, turned over when S flips y, its decoration mapped by S;
    with its role: t a translation, r a rotation (S = -1), v a mirror
    across t (S t = -t), else h or g by whether o's projection on t is a
    multiple of t.t.  ``b`` replicates a canonical pattern at least
    ``sufficient_copies`` times: the middle third then holds every class and
    is too long for an S with S t != +-t, and the window holds an offset of
    each symmetry modulo t that keeps the middle third on the board."""
    tx, ty = b.t
    tt = tx * tx + ty * ty
    attrs = {c: piece.attrs() for c, piece in b.occupancy.items()}
    along = {(x, y): x * tx + y * ty for x, y in attrs}
    lo, hi = min(along.values()), max(along.values())
    third = (hi - lo) // 3
    middle = [(x, y, *attrs[x, y]) for (x, y), a in along.items()
              if lo + third <= a <= hi - third]
    r = 2 * max(max(abs(x), abs(y))
                for (x, y), a in along.items() if 0 <= a < tt)
    out: dict[tuple[Vec, Vec], str] = {}
    for S in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        role = ("t" if S == (1, 1) else "r" if S == (-1, -1)
                else "v" if (S[0] * tx, S[1] * ty) == (-tx, -ty) else None)
        images = [(S[0] * x, S[1] * y, (k, u.flipped if S[1] < 0 else u,
                   None if d is None else (S[0] * d[0], S[1] * d[1])))
                  for x, y, k, u, d in middle]
        for o in itertools.product(range(-r, r + 1), repeat=2):
            if all(attrs.get((x + o[0], y + o[1])) == a for x, y, a in images):
                out[S, o] = role or ("h" if (o[0] * tx + o[1] * ty) % tt == 0
                                     else "g")
    return out
