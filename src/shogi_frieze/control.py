"""Neighborhood, region partition, control and the control-condition verdicts.

Everything here works on the quotient lattice Z^2 / <t> ("the cylinder").
Classes are identified with their canonical representatives; the coordinate
``cross(c, t)`` is constant on classes and measures position across the
cylinder, which gives exact tests for unbounded rays and unbounded empty
regions:

* a sliding ray parallel to t runs round the classes of its own line and,
  leaving from a piece, is stopped at the latest by that piece's own
  class; a non-parallel ray drifts monotonically in ``cross`` and is
  provably free once it leaves the occupied band.  So a ride stops, if
  at all, within a bound the band sets (``_free_length``), and a ride
  whose bound is long is solved arithmetically (``_steps_to``), so its
  cost does not grow with |t|;
* an empty region is unbounded iff it reaches a class whose ``cross`` lies
  outside the occupied band (the half-plane beyond the band is one empty,
  connected, infinite region).

A step lands on the class of its target.  Where a ride stops, and what it
passes on the way, is ``_ride``, the one ride rule: it walks a ride whose
bound is at most ``_LISTED_MAX`` classes and asks ``_move_control`` about
a longer one.  It ignores orientations.  A move controls the classes it
passes and the class it lands on unless an ally, a piece facing the
mover's way, stands there; each consumer applies that test itself:

* ``control_of_pattern`` unions every piece's step targets and rides, on
  the occupied band, into a control set for the CLI and rendering;
* ``KernelGeometry``, the engine's one verdict judge, turns moves into bit
  masks over the neighborhood, asking ``_ride`` on the occupied band
  widened by |tx| + |ty|.  It depends only on the cells and the period:
  it computes the neighborhood once, base (the occupied classes) first,
  and memoizes no move.  Given the pieces' orientations and moves,
  ``uncontrolled`` ORs each side's move masks, less that side's allies,
  into the mask of what no piece controls; ``verdict``, the one verdict
  rule, judges that mask, flooding inside from outside only for a mask
  that needs it, and ``status`` reads the whole status off it.
  ``ncc_status`` judges the pieces' own kinds on a fresh geometry, and a
  search judges every form of a cell set on one geometry, with move masks
  read off its translation's ``_ride`` paths and ``reach`` only for a ride
  too long to list.  The oracle keeps a rule of its own, on sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Optional, Sequence

from .geometry import UNIT_DIRS, Vec, reduce_cell
from .pattern import PeriodicPattern
from .pieces import Moveset, Orientation


class RegionClass(enum.Enum):
    INSIDE = "inside"
    BASE = "base"
    OUTSIDE = "outside"


# Enum members hash in Python; this tuple indexes them without hashing.
_ORIENTATIONS = tuple(Orientation)


class Verdict(enum.Enum):
    COMPLETE = "complete"
    NEARLY_COMPLETE = "nearly_complete"
    FAILS = "fails"


def _steps_to(cls: Vec, anchor: Vec, direction: Vec, t: Vec) -> Optional[int]:
    """The least k >= 1 with anchor + k*direction in the class of ``cls``,
    or None; a constant number of operations whatever |t|.

    Off t's direction the ``cross`` coordinate fixes k.  Parallel to t the
    ray runs round the L = |t| / |direction| classes of its own line, and k
    is the offset along the line modulo L, taken in [1, L].
    """
    (tx, ty), (dx, dy) = t, direction
    ex, ey = cls[0] - anchor[0], cls[1] - anchor[1]
    qd = dx * ty - dy * tx  # cross(direction, t)
    q = ex * ty - ey * tx  # cross(cls - anchor, t)
    if qd == 0:
        if q != 0:
            return None
        dd = dx * dx + dy * dy
        line = abs(tx * dx + ty * dy) // dd
        return ((ex * dx + ey * dy) // dd - 1) % line + 1
    if q % qd != 0 or q // qd < 1:
        return None
    k = q // qd
    if ((ex - k * dx) * tx + (ey - k * dy) * ty) % (tx * tx + ty * ty) != 0:
        return None
    return k


def _free_length(anchor: Vec, direction: Vec, t: Vec, qlo: int,
                 qhi: int) -> int:
    """The number of steps a free ride takes before its ``cross`` leaves
    [qlo, qhi]; one round of its line if it is parallel to t, where
    ``cross`` stays put."""
    (ax, ay), (dx, dy), (tx, ty) = anchor, direction, t
    qd = dx * ty - dy * tx  # cross(direction, t)
    if qd == 0:
        return abs(tx * dx + ty * dy) // (dx * dx + dy * dy)
    q = ax * ty - ay * tx  # cross(anchor, t)
    return max(0, (qhi - q if qd > 0 else q - qlo) // abs(qd))


@dataclass(frozen=True)
class FreeLine:
    """An unbounded ray on the quotient: anchor class plus unit direction.

    The line's content is { reduce(anchor + k*dir) : k >= 1 }; its ``cross``
    coordinate moves by cross(dir, t) per step, never zero for free rays.
    """
    anchor: Vec
    direction: Vec


@dataclass(frozen=True)
class Segment:
    """The classes a ride passes before it stops, as an arithmetic segment:
    { reduce(anchor + k*direction) : 1 <= k <= length }.  Membership costs
    a constant number of operations, so a ride parallel to t need not list
    the up to |t| classes it passes."""
    anchor: Vec
    direction: Vec
    length: int
    t: Vec

    def classes(self) -> tuple[Vec, ...]:
        """The member classes in the order the ride passes them."""
        (ax, ay), (dx, dy), (tx, ty) = self.anchor, self.direction, self.t
        tt = tx * tx + ty * ty
        out = []
        for k in range(1, self.length + 1):  # reduce_cell, written out
            x, y = ax + k * dx, ay + k * dy
            n = (x * tx + y * ty) // tt
            out.append((x - n * tx, y - n * ty))
        return tuple(out)

    def contains(self, cls: Vec) -> bool:
        k = _steps_to(cls, self.anchor, self.direction, self.t)
        return k is not None and k <= self.length


# Rides passing at most this many classes are listed in a control set; a
# longer one (parallel or nearly parallel to t, up to |t| classes) stays a
# segment.  Listing a short ride makes each later membership test a set
# lookup.
_LISTED_MAX = 32


@dataclass(frozen=True)
class PeriodicCellSet:
    """A t-periodic cell set: finitely many listed classes, segments too
    long to list, and free lines."""
    listed: frozenset[Vec]
    segments: tuple[Segment, ...]
    free_lines: tuple[FreeLine, ...]
    t: Vec

    @cached_property
    def classes(self) -> frozenset[Vec]:
        """All member classes off the free lines (built on first use)."""
        out = set(self.listed)
        for seg in self.segments:
            out.update(seg.classes())
        return frozenset(out)

    def contains(self, cls: Vec) -> bool:
        if cls in self.listed:
            return True
        if any(seg.contains(cls) for seg in self.segments):
            return True
        t = self.t
        return any(_steps_to(cls, line.anchor, line.direction, t) is not None
                   for line in self.free_lines)


@dataclass(frozen=True)
class NccStatus:
    verdict: Verdict
    uncontrolled_class: Optional[RegionClass] = None
    witness: Optional[Vec] = None
    uncontrolled: frozenset[Vec] = frozenset()

    @property
    def satisfies(self) -> bool:
        """The nearly-complete predicate (complete counts as satisfied)."""
        return self.verdict is not Verdict.FAILS


def _occupied_band(cells: Sequence[Vec], t: Vec) -> tuple[int, int]:
    tx, ty = t
    qs = [x * ty - y * tx for x, y in cells]
    return min(qs), max(qs)


def neighborhood(p: PeriodicPattern) -> frozenset[Vec]:
    """Classes of all squares adjacent to some occupied square."""
    return _neighborhood(p.t, p.cells())


def _neighborhood(t: Vec, cells: Sequence[Vec]) -> frozenset[Vec]:
    tx, ty = t
    tt = tx * tx + ty * ty
    out = set()
    for x, y in cells:
        for dx, dy in UNIT_DIRS:  # reduce_cell, written out
            u, v = x + dx, y + dy
            n = (u * tx + v * ty) // tt
            out.add((u - n * tx, v - n * ty))
    return frozenset(out)


def partition_neighborhood(p: PeriodicPattern) -> dict[Vec, RegionClass]:
    """Assign every neighborhood class to inside / base / outside.

    Inside cells are empty neighborhood cells whose 4-connected empty
    component on the plane is bounded.  The flood runs on plane cells with
    a class-to-lift memo: a component is unbounded iff it leaves the
    occupied ``cross`` band (the half-plane beyond it is empty, connected
    and infinite) or revisits a class at a different lift (the component
    winds around the quotient cylinder, so it is an infinite strip).  The
    flood is breadth first: a bounded component is enclosed by the pieces
    of one cluster, and an unbounded one leaves the band within a distance
    set by the motif, so the flood never runs along t for |t| steps.
    """
    cells = p.cells()
    return _partition(p.t, cells, _neighborhood(p.t, cells))


def _partition(t: Vec, cells: Sequence[Vec],
               nbhd: Iterable[Vec]) -> dict[Vec, RegionClass]:
    """``partition_neighborhood``'s flood on ``nbhd``, in its order."""
    tx, ty = t
    tt = tx * tx + ty * ty
    occupied = set(cells)
    qlo, qhi = _occupied_band(cells, t)
    result: dict[Vec, RegionClass] = {}
    flooded: dict[Vec, RegionClass] = {}  # class -> region of its component

    for cls in nbhd:
        if cls in occupied:
            result[cls] = RegionClass.BASE
    for cls in nbhd:
        if cls in occupied:
            continue
        region = flooded.get(cls)
        if region is None:
            lift: dict[Vec, Vec] = {}
            queue = [(cls, cls)]  # (plane cell, its class), breadth first
            head = 0
            bounded = True
            while head < len(queue) and bounded:
                cur, cur_cls = queue[head]
                head += 1
                prev = lift.get(cur_cls)
                if prev is not None:
                    if prev != cur:
                        bounded = False  # same class, different lift: winding
                    continue
                lift[cur_cls] = cur
                x, y = cur
                if not qlo <= x * ty - y * tx <= qhi:
                    bounded = False
                    break
                for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    n = (nxt[0] * tx + nxt[1] * ty) // tt
                    nxt_cls = (nxt[0] - n * tx, nxt[1] - n * ty)
                    if nxt_cls in occupied:
                        continue
                    prev = lift.get(nxt_cls)
                    if prev is not None and prev != nxt:
                        bounded = False
                        break
                    queue.append((nxt, nxt_cls))
            region = RegionClass.INSIDE if bounded else RegionClass.OUTSIDE
            for c in lift:
                flooded[c] = region
        result[cls] = region

    return result


def _move_control(t: Vec, cells: Sequence[Vec], cell: Vec,
                  move: Vec) -> tuple[Optional[Vec], Optional[int]]:
    """The piece a ride from ``cell`` reaches in the fewest steps
    (``_steps_to`` per piece in ``cells``) and the number of classes it
    passes before it, or (None, None) for a free ride.  ``_ride`` asks it
    about rides too long to walk; the cost depends on the motif only."""
    steps, hit = None, None
    for c in cells:
        k = _steps_to(c, cell, move, t)
        if k is not None and (steps is None or k < steps):
            steps, hit = k, c
    if hit is None:
        return None, None
    return hit, steps - 1


def _ride(t: Vec, cells: Sequence[Vec], occupied: Container[Vec],
          band: tuple[int, int], cell: Vec,
          move: Vec) -> tuple[Optional[Vec], list[Vec] | int]:
    """Where the ride from ``cell`` by ``move`` stops, and what it passes:
    the class of the first piece it meets (None when it is free) and the
    classes before it, as a list when there are at most ``_LISTED_MAX``
    and otherwise as their number (the ``Segment`` from ``cell`` by
    ``move`` of that length).  A free ride's classes run until its
    ``cross`` leaves ``band``, which must hold the occupied classes.

    A ride that stops does so within ``_free_length``'s bound on ``band``:
    the pieces lie inside the band, and a ride parallel to t comes back to
    its own class within one round of its line.  So a ride whose bound is
    at most ``_LISTED_MAX`` is walked class by class to its stop; a longer
    one (parallel or nearly parallel to a long t) asks ``_move_control``,
    and is walked only if it passes at most ``_LISTED_MAX`` classes.
    """
    bound = _free_length(cell, move, t, *band)
    if bound > _LISTED_MAX:
        hit, passed = _move_control(t, cells, cell, move)
        if hit is None:  # free
            passed = bound
        if passed > _LISTED_MAX:
            return hit, passed
        bound = passed + 1  # up to the piece it lands on
    (x, y), (dx, dy), (tx, ty) = cell, move, t
    tt = tx * tx + ty * ty
    classes = []
    for _ in range(bound):  # reduce_cell, written out
        x += dx
        y += dy
        n = (x * tx + y * ty) // tt
        cls = (x - n * tx, y - n * ty)
        if cls in occupied:
            return cls, classes
        classes.append(cls)
    return None, classes


def control_of_pattern(p: PeriodicPattern) -> PeriodicCellSet:
    """Classes (and free lines) of all squares the pattern's pieces can
    move to: every step's target and every ride's ``_ride``.  A ride
    parallel (or nearly parallel) to a long t stays a segment, so it costs
    no more than a short one."""
    t, cells = p.t, p.cells()
    occupied = p.class_map()
    band = _occupied_band(cells, t)
    classes: set[Vec] = set()
    segments: set[Segment] = set()
    free_lines: set[FreeLine] = set()

    for piece in p.pieces:
        cell, orientation = piece.cell, piece.orientation
        m = piece.kind.oriented(orientation)
        for dx, dy in m.steps:
            cls = reduce_cell((cell[0] + dx, cell[1] + dy), t)
            hit = occupied.get(cls)
            if hit is None or hit.orientation is not orientation:
                classes.add(cls)
        for ride in m.rides:
            cls, passed = _ride(t, cells, occupied, band, cell, ride)
            if cls is None:
                free_lines.add(FreeLine(cell, ride))
            elif occupied[cls].orientation is not orientation:
                classes.add(cls)
            if isinstance(passed, int):
                segments.add(Segment(cell, ride, passed, t))
            else:
                classes.update(passed)

    key = lambda x: (x.anchor, x.direction)
    return PeriodicCellSet(frozenset(classes),
                           tuple(sorted(segments, key=key)),
                           tuple(sorted(free_lines, key=key)), t)


class KernelGeometry:
    """The engine's one verdict judge: what depends only on the period and
    the occupied classes, never on the pieces' orientations or kinds, so
    one geometry judges every pattern on the same cells.

    It holds one bit per neighborhood class, the occupied ones first
    (``base``).  ``reach`` gives the mask of the classes one move of a
    piece reaches: the empty classes a ride passes or a step lands on, and
    the class of the piece it lands on, which it controls only when that
    piece is an enemy.  The geometry memoizes no move; a search keeps its
    own move masks per cell set (``search._CellSet``), read off paths it
    keeps per translation, and asks ``reach`` only about a ride too long
    to list.  A ride stops where ``_ride`` says, asked on the occupied
    band widened by |tx| + |ty|, past which no neighborhood class lies.
    ``uncontrolled`` turns orientations and moves on the pieces into the
    mask of what no piece controls, ``verdict`` judges that mask, and
    ``status`` spells it out; ``partition`` is flooded on first use.
    """

    def __init__(self, t: Vec, cells: tuple[Vec, ...]) -> None:
        self.t = t
        self.cells = cells
        # One bit per neighborhood class, the occupied ones (base) first:
        # the key order of ``_partition``, which ``status`` keeps.
        occupied = self.occupied = set(cells)
        nbhd = _neighborhood(t, cells)
        order = [c for c in nbhd if c in occupied]
        self.base = (1 << len(order)) - 1
        order += [c for c in nbhd if c not in occupied]
        self.bits = {c: 1 << i for i, c in enumerate(order)}
        self.every = (1 << len(order)) - 1
        self._partition: Optional[dict[Vec, RegionClass]] = None
        self._split: Optional[tuple[int, int]] = None  # inside, outside
        self._band: Optional[tuple[int, int]] = None  # built on first use
        self._statuses: dict[int, NccStatus] = {}  # by mask

    @property
    def partition(self) -> dict[Vec, RegionClass]:
        """The neighborhood's regions, flooded on first use."""
        if self._partition is None:
            self._partition = _partition(self.t, self.cells, self.bits)
        return self._partition

    def verdict(self, mask: int) -> Verdict:
        """The verdict rule on an uncontrolled mask: 0 is complete, one
        nonempty region's mask other than ``every`` nearly complete, any
        other mask fails.  Only a nonzero mask off base needs the flood."""
        if not mask:
            return Verdict.COMPLETE
        if mask == self.every:
            return Verdict.FAILS
        if mask & self.base:
            return (Verdict.NEARLY_COMPLETE if mask == self.base
                    else Verdict.FAILS)
        if self._split is None:
            inside, bits, region = 0, self.bits, RegionClass.INSIDE
            for c, r in self.partition.items():
                if r is region:
                    inside |= bits[c]
            self._split = inside, self.every ^ self.base ^ inside
        return (Verdict.NEARLY_COMPLETE if mask in self._split
                else Verdict.FAILS)

    def uncontrolled(self, orientations: Sequence[Orientation],
                     movesets: Sequence[Moveset]) -> int:
        """The mask of the neighborhood classes that no piece controls, with
        the i-th piece on ``cells[i]`` facing ``orientations[i]`` and moving
        by the oriented ``movesets[i]``.  A piece controls what its moves
        reach except the classes of its allies, the pieces facing its way,
        so each side's reach is ORed first and its allies taken out once.
        """
        reach, bits = self.reach, self.bits
        reached = [0] * len(_ORIENTATIONS)  # per side
        allies = [0] * len(_ORIENTATIONS)
        for c, o, m in zip(self.cells, orientations, movesets, strict=True):
            j = _ORIENTATIONS.index(o)
            allies[j] |= bits.get(c, 0)
            for move in m.steps:
                reached[j] |= reach(c, move, False)
            for move in m.rides:
                reached[j] |= reach(c, move, True)
        controlled = 0
        for r, a in zip(reached, allies):
            controlled |= r & ~a
        return self.every & ~controlled

    def status(self, mask: int) -> NccStatus:
        """The status of the uncontrolled ``mask``: its verdict, its classes
        (in bit order), the region they make up when nearly complete and
        the least of them as witness when it fails.  Memoized by mask: a
        search reads the statuses of many forms off one geometry."""
        status = self._statuses.get(mask)
        if status is None:
            verdict = self.verdict(mask)
            classes = frozenset([c for c, bit in self.bits.items()
                                 if mask & bit])
            region = (None if verdict is not Verdict.NEARLY_COMPLETE
                      else RegionClass.BASE if mask == self.base
                      else self.partition[next(iter(classes))])
            witness = min(classes) if verdict is Verdict.FAILS else None
            status = self._statuses[mask] = NccStatus(verdict, region,
                                                      witness, classes)
        return status

    def reach(self, cell: Vec, move: Vec, ride: bool) -> int:
        """The mask of what a move of the piece on ``cell`` reaches."""
        bits, (tx, ty) = self.bits, self.t
        if not ride:  # reduce_cell, written out
            x, y = cell[0] + move[0], cell[1] + move[1]
            n = (x * tx + y * ty) // (tx * tx + ty * ty)
            return bits.get((x - n * tx, y - n * ty), 0)
        # Past the pieces a free ride still meets neighborhood classes until
        # its ``cross`` leaves their band, and none after.  That band is the
        # occupied one widened by |tx| + |ty|, the most a unit step moves
        # ``cross``.
        if self._band is None:
            qlo, qhi = _occupied_band(self.cells, self.t)
            s = abs(tx) + abs(ty)
            self._band = qlo - s, qhi + s
        hit, passed = _ride(self.t, self.cells, self.occupied, self._band,
                            cell, move)
        mask = bits.get(hit, 0)  # 0 for None
        if isinstance(passed, int):  # too long to walk: test each class
            for c, bit in bits.items():
                k = _steps_to(c, cell, move, self.t)
                if k is not None and k <= passed:
                    mask |= bit
            return mask
        for c in passed:
            mask |= bits.get(c, 0)
        return mask


def ncc_status(p: PeriodicPattern) -> NccStatus:
    """Verdict of the neighborhood control conditions for the pattern's own
    kinds (see ``KernelGeometry.verdict`` for the rule)."""
    g = KernelGeometry(p.t, p.cells())
    return g.status(g.uncontrolled(
        [x.orientation for x in p.pieces],
        [x.kind.oriented(x.orientation) for x in p.pieces]))
