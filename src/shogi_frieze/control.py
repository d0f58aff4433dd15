"""Neighborhood, region partition, control and the control-condition verdicts.

Everything here works on the quotient lattice Z^2 / <t> ("the cylinder").
Classes are identified with their canonical representatives; the coordinate
``cross(c, t)`` is constant on classes and measures position across the
cylinder, which gives exact tests for unbounded rays and unbounded empty
regions:

* a sliding ray parallel to t runs round the classes of its own line and,
  leaving from a piece, is stopped at the latest by that piece's own
  class; a non-parallel ray drifts monotonically in ``cross`` and is
  provably free once it leaves the occupied band.  Both are solved
  arithmetically, with no walk, so their cost does not grow with |t|;
* an empty region is unbounded iff it reaches a class whose ``cross`` lies
  outside the occupied band (the half-plane beyond the band is one empty,
  connected, infinite region).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .geometry import (ORTHO_DIRS, UNIT_DIRS, Vec, add, cross, dot, is_unit,
                       reduce_cell, scale, sub)
from .pattern import PatternError, PeriodicPattern
from .pieces import Orientation


class RegionClass(enum.Enum):
    INSIDE = "inside"
    BASE = "base"
    OUTSIDE = "outside"


class Verdict(enum.Enum):
    COMPLETE = "complete"
    NEARLY_COMPLETE = "nearly_complete"
    FAILS = "fails"


class RayEvent(enum.Enum):
    BLOCKED_BY_ALLY = "blocked_by_ally"
    CAPTURE_ENEMY = "capture_enemy"
    FREE_INFINITE = "free_infinite"


def _steps_to(cls: Vec, anchor: Vec, direction: Vec, t: Vec) -> Optional[int]:
    """The least k >= 1 with anchor + k*direction in the class of ``cls``,
    or None; a constant number of operations whatever |t|.

    Off t's direction the ``cross`` coordinate fixes k.  Parallel to t the
    ray runs round the L = |t| / |direction| classes of its own line, and k
    is the offset along the line modulo L, taken in [1, L].
    """
    delta = sub(cls, anchor)
    qd = cross(direction, t)
    q = cross(delta, t)
    if qd == 0:
        if q != 0:
            return None
        dd = dot(direction, direction)
        line = abs(dot(t, direction)) // dd
        return (dot(delta, direction) // dd - 1) % line + 1
    if q % qd != 0 or q // qd < 1:
        return None
    k = q // qd
    if dot(sub(delta, scale(direction, k)), t) % dot(t, t) != 0:
        return None
    return k


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
        (ax, ay), (dx, dy), t = self.anchor, self.direction, self.t
        return tuple(reduce_cell((ax + k * dx, ay + k * dy), t)
                     for k in range(1, self.length + 1))

    def contains(self, cls: Vec) -> bool:
        k = _steps_to(cls, self.anchor, self.direction, self.t)
        return k is not None and k <= self.length


@dataclass(frozen=True)
class RayMarch:
    passed: Segment
    event: RayEvent
    capture: Optional[Vec] = None
    free_line: Optional[FreeLine] = None

    @cached_property
    def empty_classes(self) -> tuple[Vec, ...]:
        """The passed classes, listed (built on first use)."""
        return self.passed.classes()


# Rides passing at most this many classes are listed in a control set; a
# longer one (parallel or nearly parallel to t, up to |t| classes) stays a
# segment.  Listing a short ride makes each later membership test a set
# lookup, which is what verdicts on small patterns spend their time on.
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


def _occupied_band(p: PeriodicPattern) -> tuple[int, int]:
    qs = [cross(c, p.t) for c in p.cells()]
    return min(qs), max(qs)


def neighborhood(p: PeriodicPattern) -> frozenset[Vec]:
    """Classes of all squares adjacent to some occupied square."""
    t = p.t
    out = set()
    for c in p.cells():
        for d in UNIT_DIRS:
            out.add(reduce_cell(add(c, d), t))
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
    t = p.t
    occupied = p.class_map()
    nbhd = neighborhood(p)
    qlo, qhi = _occupied_band(p)

    result: dict[Vec, RegionClass] = {}
    component_bounded: dict[Vec, bool] = {}

    for cls in nbhd:
        if cls in occupied:
            result[cls] = RegionClass.BASE

    for cls in nbhd:
        if cls in result:
            continue
        if cls in component_bounded:
            result[cls] = (RegionClass.INSIDE if component_bounded[cls]
                           else RegionClass.OUTSIDE)
            continue
        lift: dict[Vec, Vec] = {}
        frontier = deque([cls])
        bounded = True
        while frontier and bounded:
            cur = frontier.popleft()
            cur_cls = reduce_cell(cur, t)
            prev = lift.get(cur_cls)
            if prev is not None:
                if prev != cur:
                    bounded = False  # same class, different lift: winding
                continue
            lift[cur_cls] = cur
            if not (qlo <= cross(cur, t) <= qhi):
                bounded = False
                break
            for d in ORTHO_DIRS:
                nxt = add(cur, d)
                nxt_cls = reduce_cell(nxt, t)
                if nxt_cls in occupied:
                    continue
                prev = lift.get(nxt_cls)
                if prev is not None and prev != nxt:
                    bounded = False
                    break
                frontier.append(nxt)
        for c in lift:
            component_bounded[c] = bounded
        result[cls] = (RegionClass.INSIDE if bounded else RegionClass.OUTSIDE)

    return result


def ray_march(p: PeriodicPattern, origin: Vec, direction: Vec,
              origin_orientation: Orientation) -> RayMarch:
    """The sliding ray from an occupied square, on classes.

    Allies block exclusively, enemies are captured inclusively.  The ray
    stops at the piece it reaches in the fewest steps (``_steps_to`` per
    piece).  With none on its way it is free: a ray off t's direction once
    its monotone ``cross`` leaves the occupied band, a ray parallel to t
    after one round of its line.  The cost depends on the motif only.
    """
    if not is_unit(direction):
        raise PatternError(f"ray direction {direction} is not a unit vector")
    t = p.t
    anchor = reduce_cell(origin, t)
    steps, hit = None, None
    for piece in p.pieces:
        k = _steps_to(piece.cell, origin, direction, t)
        if k is not None and (steps is None or k < steps):
            steps, hit = k, piece
    if hit is not None:
        passed = Segment(anchor, direction, steps - 1, t)
        if hit.orientation is origin_orientation:
            return RayMarch(passed, RayEvent.BLOCKED_BY_ALLY)
        return RayMarch(passed, RayEvent.CAPTURE_ENEMY, capture=hit.cell)
    qd = cross(direction, t)
    if qd == 0:
        length = abs(dot(t, direction)) // dot(direction, direction)
    else:
        qlo, qhi = _occupied_band(p)
        q = cross(origin, t)
        room = qhi - q if qd > 0 else q - qlo
        length = max(0, room // abs(qd))
    return RayMarch(Segment(anchor, direction, length, t),
                    RayEvent.FREE_INFINITE,
                    free_line=FreeLine(anchor, direction))


def control_of_pattern(p: PeriodicPattern) -> PeriodicCellSet:
    """Classes (and free lines) of all squares the pattern's pieces can
    move to.  Step targets on ally squares are excluded; enemy squares are
    included for both steps and rides.  The squares a ride passes are
    listed when they are few and otherwise kept as a segment, so a ride
    parallel (or nearly parallel) to a long t costs no more than a short
    one."""
    t = p.t
    occupied = p.class_map()
    classes: set[Vec] = set()
    segments: set[Segment] = set()
    free_lines: set[FreeLine] = set()

    for piece in p.pieces:
        m = piece.kind.oriented(piece.orientation)
        for step in m.steps:
            cls = reduce_cell(add(piece.cell, step), t)
            hit = occupied.get(cls)
            if hit is not None and hit.orientation is piece.orientation:
                continue
            classes.add(cls)
        for ride in m.rides:
            res = ray_march(p, piece.cell, ride, piece.orientation)
            if res.passed.length <= _LISTED_MAX:
                classes.update(res.passed.classes())
            else:
                segments.add(res.passed)
            if res.capture is not None:
                classes.add(res.capture)
            if res.free_line is not None:
                free_lines.add(res.free_line)

    key = lambda x: (x.anchor, x.direction)
    return PeriodicCellSet(frozenset(classes),
                           tuple(sorted(segments, key=key)),
                           tuple(sorted(free_lines, key=key)), t)


def ncc_status(p: PeriodicPattern) -> NccStatus:
    """Verdict of the neighborhood control conditions.

    Complete: every neighborhood class is controlled.  Nearly complete:
    some neighborhood class is controlled and the uncontrolled set equals
    exactly one nonempty region (base, inside, or outside).  Anything else
    fails, with a witness cell.
    """
    nbhd = neighborhood(p)
    regions = partition_neighborhood(p)
    ctrl = control_of_pattern(p)
    return _verdict_from_parts(nbhd, regions, ctrl)


def _verdict_from_parts(nbhd: frozenset[Vec],
                        regions: Mapping[Vec, RegionClass],
                        ctrl: PeriodicCellSet) -> NccStatus:
    uncontrolled = frozenset(c for c in nbhd if not ctrl.contains(c))
    if not uncontrolled:
        return NccStatus(Verdict.COMPLETE, uncontrolled=uncontrolled)
    if len(uncontrolled) < len(nbhd):
        for region in RegionClass:
            cells = frozenset(c for c, r in regions.items() if r is region)
            if cells and cells == uncontrolled:
                return NccStatus(Verdict.NEARLY_COMPLETE,
                                 uncontrolled_class=region,
                                 uncontrolled=uncontrolled)
    return NccStatus(Verdict.FAILS, witness=min(uncontrolled),
                     uncontrolled=uncontrolled)
