"""Bounded exhaustive search for crystals, special forms and dualities.

Enumeration order (part of the external contract, reports are returned in
discovery order): translation vectors sorted by (max component, dx, dy);
then motif piece count ascending; then cell combinations in lexicographic
order over the bounding box; then orientation assignments (Up before
Down); then decoration assignments (none first, then the eight unit
directions counterclockwise from east).

Every group searches every translation its isometries allow: all of them
for p1 and p2, the horizontal and vertical ones for the mirror and glide
groups (``symmetry.role_linear_part``).  The group also filters cell
combinations (``_has_roles``): a pattern with the group has a symmetry of
each of its roles (``symmetry.GROUP_ROLES``), which sends its classes mod t
onto themselves, so a combination with no self-map of that role, named as
``detect_symmetries`` names it (``symmetry._role``), is skipped with all
its assignments.  A group scan does not visit the combinations of every
size to skip most of them: it generates, from one of its roles (g, else
h, r, v), the unions of whole cycles of that role's maps on the pool's
classes (``_symmetric_combinations``), in enumeration order, and
``_has_roles`` then tests all its roles.

Pruning works on orbits under translations and, when every searched kind
has a left-right symmetric moveset, the vertical mirror: a combination
with no pool cell at x = 0 or none at y = 0 (``_first_translate``), or
whose classes mod t are such an image of an earlier combination's
(``_cell_key``), is skipped with all its assignments.  With the mirror, a
translation (tx, ty) with tx != 0 and ty > 0 is skipped whole: its pool
is the box, which x -> w - 1 - x maps onto itself, so each of its cell
sets is a mirror image of one on (tx, -ty), which comes earlier.  The rest
are judged by their self-maps, the maps c -> S c + o that send their
classes mod t onto themselves (``geometry.self_maps``), listed once per
cell set.  An assignment is kept when no translation or mirror self-map
sends it to an earlier one, so the scan yields the first form of each
orbit in enumeration order, as the unpruned scan filtered by orbit does.
The same self-maps give the period and the group: a form's period is
redundant when a translation self-map other than the identity fixes it,
and its group is that of the self-maps that fix it.  These rules need
only each map's S, its permutation of the cells and its role, so the cell
sets with one such signature share them (``_FormJudge``).  One call per
cell set (``_FormJudge.assignments``) gives the assignments that pass,
judged once per signature; a cell set whose only self-map is the identity
passes them all unread.  The forms that pass are judged on their cell
set's bit masks (``_CellSet``) one kind column at a time, up to the first
that misses the target; a report matches every column, and its statuses
are read off them.  A crystal report's pattern is built canonical: its
cells are classes mod t, t has canonical sign and a group scan yields no
form of redundant period.
Where a move goes from a class does not depend on the cell set, so each
translation keeps one table of the moves' paths from its pool's classes
(``_MoveRows``), and every cell set on it reads its move masks off it.
Translations and the mirror carry a cell combination that passes the group
filter to one that passes it, so the filter keeps this order:
``find_crystal`` reports what filtering every form of the space by orbit,
period, group and verdicts reports, in the same order (both
differentially tested).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .control import (KernelGeometry, NccStatus, RegionClass, Verdict,
                      _occupied_band, _ride, ncc_status)
from .geometry import UNIT_DIRS, Vec, canonical_sign, reduce_cell, self_maps
from .pattern import (Form, PatternError, PeriodicPattern, PlacedPiece,
                      form_of)
from .pieces import (BISHOP, GOLD, KING, KNIGHT, LANCE, PAWN, ROOK, SILVER,
                     Moveset, Orientation, PieceKind)
from .symmetry import (_GROUP_OF_FLAGS, _LINEAR_PARTS, GROUP_ROLES,
                       FriezeGroup, _role, classify_frieze, role_linear_part)

KIND_COLUMNS: tuple[PieceKind, ...] = (
    KNIGHT, PAWN, LANCE, BISHOP, SILVER, GOLD, ROOK, KING,
)

ROW_ORDER: tuple[FriezeGroup, ...] = (
    FriezeGroup.P2MM, FriezeGroup.P2, FriezeGroup.P1M1, FriezeGroup.P11M,
    FriezeGroup.P2MG, FriezeGroup.P1, FriezeGroup.P11G,
)


def staircase_target(row_index: int) -> dict[PieceKind, bool]:
    """Row i of the correspondence table: the first i+1 columns fail and
    the remaining suffix satisfies."""
    return {k: j > row_index for j, k in enumerate(KIND_COLUMNS)}


EXPECTED_TABLE: dict[FriezeGroup, dict[PieceKind, bool]] = {
    g: staircase_target(i) for i, g in enumerate(ROW_ORDER)
}


@dataclass(frozen=True)
class SearchBounds:
    max_motif_pieces: int
    box: tuple[int, int]
    max_period: int
    orientations: frozenset[Orientation] = frozenset(
        (Orientation.UP, Orientation.DOWN))
    allow_decorations: bool = False

    def __post_init__(self) -> None:
        if (self.max_motif_pieces < 0 or self.max_period < 1
                or self.box[0] < 1 or self.box[1] < 1):
            raise ValueError("bounds must be positive")


@dataclass(frozen=True)
class CrystalReport:
    form: Form
    pattern: PeriodicPattern
    group: FriezeGroup
    vector: dict[PieceKind, bool]
    details: dict[PieceKind, NccStatus]


def ncc_vector(form: Form, kinds: Iterable[PieceKind] = KIND_COLUMNS,
               ) -> dict[PieceKind, NccStatus]:
    """Verdict for the form instantiated uniformly with each kind, all on
    one ``KernelGeometry``: a uniform motif's canonical cells and period do
    not depend on its kind.  The searches share one per cell set
    (``_CellSet``)."""
    p = form.instantiate(KING)
    g = KernelGeometry(p.t, p.cells())
    orients = [x.orientation for x in p.pieces]
    return {k: g.status(g.uncontrolled(orients,
                                       [k.oriented(o) for o in orients]))
            for k in kinds}


# ---------------------------------------------------------------------------
# Enumeration

_DECORS: tuple[Optional[Vec], ...] = (None,) + UNIT_DIRS


def _period_candidates(bounds: SearchBounds) -> Iterator[Vec]:
    """The translations in enumeration order, ring by ring (max(|a|, |b|)
    = 1, 2, ...), so a scan that stops early builds no later ring."""
    for r in range(1, bounds.max_period + 1):
        for a in range(r):
            if a:
                yield a, -r
            yield a, r
        for b in range(-r, r + 1):
            yield r, b


def _cell_pool(bounds: SearchBounds, t: Vec) -> list[Vec]:
    w, h = bounds.box
    if t[1] == 0:
        w = min(w, t[0])
    return [(x, y) for x in range(w) for y in range(h)]


def _attributes(bounds: SearchBounds,
                ) -> tuple[tuple[Orientation, ...], tuple[Optional[Vec], ...]]:
    """The orientations (Up first) and decorations a cell can carry."""
    orients = tuple(sorted(bounds.orientations,
                           key=lambda o: o is Orientation.DOWN))
    return orients, _DECORS if bounds.allow_decorations else (None,)


def _assignment_indices(bounds: SearchBounds,
                        n: int) -> Iterator[tuple[int, ...]]:
    """The assignments on n cells in enumeration order, each as the index
    (into ``_attributes``) of every cell's orientation, then of every
    cell's decoration; the order is their lexicographic order."""
    orients, decors = _attributes(bounds)
    return itertools.product(*[range(len(orients))] * n,
                             *[range(len(decors))] * n)


def _form(bounds: SearchBounds, t: Vec, cells: list[Vec],
          a: tuple[int, ...], attributes=None) -> Form:
    """The form of the assignment ``a`` on ``cells``; ``attributes`` are
    ``_attributes(bounds)`` when the caller keeps them (``_ScanTables``)."""
    orients, decors = attributes or _attributes(bounds)
    n = len(cells)
    return Form(tuple(zip(cells, [orients[i] for i in a[:n]],
                          [decors[i] for i in a[n:]])), t)


def _translation_key(t: Vec, cells: list[tuple[int, int, tuple]]):
    """Lexicographically minimal re-anchoring of a motif with period ``t``
    given as ``(x, y, attrs)`` cells: over every anchor a, the sorted
    entries ``(reduce_cell(c - a, t),) + attrs``, with the reduction
    written out on the projections ``c . t``."""
    tx, ty = t
    tt = tx * tx + ty * ty
    proj = [(x, y, x * tx + y * ty, attrs) for x, y, attrs in cells]
    best = None
    for ax, ay, ap, _ in proj:
        moved = []
        for x, y, p, attrs in proj:
            k = (p - ap) // tt
            moved.append(((x - ax - k * tx, y - ay - k * ty),) + attrs)
        moved.sort()
        if best is None or moved < best:
            best = moved
    return (t, tuple(best))


def orbit_key(form: Form, mirror: bool):
    """The least translation key of the form and, with ``mirror``, of
    its vertical mirror image (x -> -x)."""
    cells = [(x, y, (o.value, d is not None, d or (0, 0)))
             for (x, y), o, d in form.cells]
    key = _translation_key(form.t, cells)
    if mirror:
        mirrored = [(-x, y, (ov, has, (-d[0], d[1])))
                    for x, y, (ov, has, d) in cells]
        key = min(key, _translation_key(
            canonical_sign((-form.t[0], form.t[1])), mirrored))
    return key


def _cell_key(t: Vec, cells: list[Vec], mirror: bool):
    """The key of a bare cell set, compared only with other cell keys: its
    classes mod t up to translation and, with ``mirror``, the vertical
    mirror.  It is ``_translation_key``'s reduction on bare cells."""
    def key(t: Vec, cells: list[Vec]):
        tx, ty = t
        tt = tx * tx + ty * ty
        proj = [(x, y, x * tx + y * ty) for x, y in cells]
        best = None
        for ax, ay, ap in proj:
            moved = []
            for x, y, p in proj:
                k = (p - ap) // tt
                moved.append((x - ax - k * tx, y - ay - k * ty))
            moved.sort()
            if best is None or moved < best:
                best = moved
        return (t, tuple(best))
    found = key(t, cells)
    if mirror:
        found = min(found, key(canonical_sign((-t[0], t[1])),
                               [(-x, y) for x, y in cells]))
    return found


# ---------------------------------------------------------------------------
# Self-maps: the verdicts on a cell set's forms without their patterns

_TRANSLATION: Vec = (1, 1)
_X_MIRROR: Vec = (-1, 1)


def _has_roles(t: Vec, cells: list[Vec],
               required: Sequence[tuple[str, Vec]]) -> bool:
    """The group filter: whether, for each ``(role, S)`` of ``required``,
    some self-map with the linear part S has that role, as a symmetry of
    that role of any pattern on the cells is."""
    return all(any(_role(S, o, t)[0] == role
                   for o, _ in self_maps(t, cells, S))
               for role, S in required)


def _symmetric_combinations(t: Vec, pool: list[Vec],
                            classes: Mapping[Vec, Vec], role: str,
                            max_n: int) -> list[tuple[Vec, ...]]:
    """The combinations of at most ``max_n`` pool cells, in distinct
    classes mod t, whose classes a map c -> S c + o with ``role``
    (``symmetry._role``, S its linear part) sends onto themselves, in
    enumeration order: by size, then as ``itertools.combinations`` gives
    them.  Such a map is a bijection of the classes, so their set is a
    union of whole cycles of it on the pool's classes; o is c_j - S c_0
    mod t for pool classes c_0 and c_j, and each class of the union is
    taken on any of its pool cells.  ``_has_roles`` stays the rule that
    accepts a combination: this only proposes them."""
    cells_of: dict[Vec, list[Vec]] = {}
    for c in pool:
        cells_of.setdefault(classes[c], []).append(c)
    S = role_linear_part(role, t)
    sx, sy = S
    offsets = {reduce_cell((xj - sx * x0, yj - sy * y0), t)
               for xj, yj in cells_of for x0, y0 in cells_of}
    found = set()
    for ox, oy in offsets:
        if _role(S, (ox, oy), t)[0] != role:
            continue
        image = {c: reduce_cell((sx * c[0] + ox, sy * c[1] + oy), t)
                 for c in cells_of}
        cycles, seen = [], set()
        for c in image:
            if c in seen:
                continue
            cycle, d = [c], image[c]
            while d != c and d in image:
                cycle.append(d)
                d = image[d]
            seen.update(cycle)
            if d == c and len(cycle) <= max_n:
                cycles.append(cycle)
        for k in range(1, max_n + 1):
            for chosen in itertools.combinations(cycles, k):
                union = [c for cycle in chosen for c in cycle]
                if len(union) <= max_n:
                    found.update(tuple(sorted(combo)) for combo in
                                 itertools.product(*map(cells_of.get, union)))
    return sorted(found, key=lambda combo: (len(combo), combo))


def _combinations(bounds: SearchBounds, t: Vec, pool: list[Vec],
                  classes: Mapping[Vec, Vec],
                  roles: str) -> Iterable[tuple[Vec, ...]]:
    """The combinations of pool cells a scan visits on t, in enumeration
    order: every one, or with ``roles`` those that a self-map with one of
    them sends onto themselves (g first, then h, r, v)."""
    n = bounds.max_motif_pieces
    if not roles:
        return itertools.chain.from_iterable(
            itertools.combinations(pool, k) for k in range(1, n + 1))
    role = next(r for r in "ghrv" if r in roles)
    return _symmetric_combinations(t, pool, classes, role, n)


def _first_translate(combo: Sequence[Vec]) -> bool:
    """The position test: whether pool cells (x-major) include one at x = 0
    and one at y = 0.  If not, shifted back they are an earlier combination
    in the same orbit, so the first combination of each orbit passes."""
    return combo[0][0] == 0 and any(y == 0 for _, y in combo)


def _image(action, a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([table[a[i]] for i, table in action])


class _ScanTables:
    """What every cell set of one scan shares, built once per scan: its
    ``bounds`` and ``kinds`` and

    * ``attributes``, the bounds' orientations and decorations
      (``_attributes``), which the forms' assignments index;
    * ``maps``, the judge's tables, which depend on the bounds only: per
      linear part S (the translations first), the image of each
      orientation index (-1 for one the bounds exclude) and of each
      decoration index;
    * ``rules``, the judge's rules per self-map signature (``_FormJudge``),
      each built on first need (``build_rules``);
    * ``mirror``, whether the scan prunes by the vertical mirror x -> -x.
      That is sound only when every kind's moveset is left-right
      symmetric, as every standard kind's is: then a pattern's mirror
      image has its verdicts;
    * ``moves``, the distinct moves ``(move, ride)`` of the kinds in every
      orientation the bounds allow, and ``ids``, per kind and orientation
      index the ids (positions in ``moves``) of its moves.  Moves recur
      across kinds and orientations: the king's steps are those of gold
      and silver together, in both orientations.

    Where the moves go from a class depends on the translation too, so it
    is kept per translation (``_MoveRows``), not here.
    """

    def __init__(self, bounds: SearchBounds,
                 kinds: Sequence[PieceKind]) -> None:
        self.bounds, self.kinds = bounds, tuple(kinds)
        self.attributes = orients, decors = _attributes(bounds)
        self.maps = {}
        for S in (_TRANSLATION,) + _LINEAR_PARTS:
            turn = (lambda o: o.flipped) if S[1] < 0 else (lambda o: o)
            otable = [orients.index(turn(o)) if turn(o) in orients else -1
                      for o in orients]
            dtable = [decors.index(None if d is None
                                   else (S[0] * d[0], S[1] * d[1]))
                      for d in decors]
            self.maps[S] = otable, dtable
        flip = lambda s: frozenset((-dx, dy) for dx, dy in s)
        self.mirror = all(flip(k.moveset.steps) == k.moveset.steps
                          and flip(k.moveset.rides) == k.moveset.rides
                          for k in self.kinds)
        index: dict[tuple[Vec, bool], int] = {}

        def ids(m: Moveset) -> tuple[int, ...]:
            moves = [(d, False) for d in m.steps] + [(d, True) for d in m.rides]
            return tuple(index.setdefault(x, len(index)) for x in moves)
        self.ids = [[ids(k.oriented(o)) for o in orients] for k in kinds]
        self.moves = tuple(index)
        self.rules: dict[tuple, tuple] = {}

    def build_rules(self, signature: tuple) -> tuple:
        """The judge's rules on the cell sets whose self-maps have this
        signature (``_FormJudge``): the actions of the orbit, of the
        translations other than the identity and, with their roles, of the
        maps that have one; and an empty dict, for ``assignments`` to keep
        one flag per assignment index and group."""
        orbit, translations, roles = [], [], []
        for S, perm, role in signature:
            otable, dtable = self.maps[S]
            n, source = len(perm), [0] * len(perm)
            for i, k in enumerate(perm):
                source[k] = i
            action = ([(i, otable) for i in source]
                      + [(n + i, dtable) for i in source])
            if S == _TRANSLATION:
                if role:  # not the identity
                    translations.append(action)
                    orbit.append(action)
                continue
            if S == _X_MIRROR and self.mirror:
                orbit.append(action)
            if role:
                roles.append((role, action))
        return orbit, translations, roles, {}


class _MoveRows:
    """Where the scan's moves (``_ScanTables.moves``) go from the classes
    of one translation's pool, whatever the cell set: per class a row with
    one path per move id, built the first time a cell set needs it.

    * A step's path is its target class.
    * A ride's path is the classes it passes with no class occupied
      (``control._ride``), on the band of the pool's classes widened by
      |tx| + |ty|; None when that ride is too long to list (more than
      ``_LISTED_MAX`` classes).

    On a cell set of pool classes a move reaches its path up to and
    including the first occupied class, which is what
    ``KernelGeometry.reach`` gives.  The cell set's own band, widened so,
    holds its neighborhood and pieces, and the wider band adds only
    classes past it, where neither lies; a ride parallel to t comes back
    to its own, occupied class.  A move whose path is None is asked of
    ``KernelGeometry.reach``.
    """

    def __init__(self, tables: _ScanTables, t: Vec,
                 pool: Sequence[Vec]) -> None:
        self.tables, self.t = tables, t
        # ``cross`` is constant on classes, so the pool's cells give the
        # band of its classes
        qlo, qhi = _occupied_band(pool, t)
        s = abs(t[0]) + abs(t[1])
        self.band = qlo - s, qhi + s
        self._rows: dict[Vec, list] = {}

    def row(self, cls: Vec) -> list[Optional[tuple[Vec, ...]]]:
        """The path of each move id from the class ``cls``."""
        row = self._rows.get(cls)
        if row is None:
            row = self._rows[cls] = self._build(cls)
        return row

    def _build(self, cls: Vec) -> list[Optional[tuple[Vec, ...]]]:
        t, band, row = self.t, self.band, []
        for move, ride in self.tables.moves:
            if not ride:
                row.append((reduce_cell((cls[0] + move[0],
                                         cls[1] + move[1]), t),))
                continue
            _, passed = _ride(t, (), (), band, cls, move)
            row.append(None if isinstance(passed, int) else tuple(passed))
        return row


class _FormJudge:
    """The orbit, period and group verdicts on the forms of one cell set,
    read off its self-maps (``geometry.self_maps``) with every
    S = diag(+-1, +-1).  A self-map acts
    on an assignment (``_assignment_indices``) a: it sends a to the b with
    b[perm[i]] the image of a[i], the orientation turned over when S flips
    y and the decoration mapped by S (-1 for an orientation the bounds
    exclude).  Its action is stored as ``(source, table)`` per entry of b,
    with the scan's tables (``_ScanTables.maps``).

    * Orbit: a is the first form of its orbit iff no translation, and when
      the scan prunes by the mirror (``_ScanTables.mirror``) no x-mirror
      (x -> -x), sends it to an earlier assignment: the orbit's other
      forms on these cells are its images under those self-maps, and forms
      on other cells lie on other cell sets (``_cell_key``).
    * Period: a pattern has a period shorter than t iff it has a
      translation symmetry that is no multiple of t, so a's period is
      redundant iff a translation self-map other than the identity fixes
      it.
    * Group: on its own period, the pattern's symmetries are the self-maps
      that fix a, with their roles (``symmetry._role``).

    These rules depend only on the cell set's signature: each self-map's
    S, its permutation of the cells and its role (for a translation,
    whether it is not the identity).  The scan keeps one set of rules per
    signature (``_ScanTables.rules``), which the judges of its cell sets
    share: the P1 benchmark scan's 378 cell sets have 30 signatures.
    ``assignments`` applies the rules to every assignment of the cell set
    in one call, and keeps what they give per group as one flag per
    assignment index for the next cell set of the signature.
    """

    def __init__(self, tables: _ScanTables, t: Vec, cells: list[Vec]) -> None:
        self.bounds, self.n = tables.bounds, len(cells)
        signature = tuple(
            (S, perm, o != (0, 0) if S == _TRANSLATION else _role(S, o, t)[0])
            for S in tables.maps for o, perm in self_maps(t, cells, S))
        rules = tables.rules.get(signature)
        if rules is None:
            rules = tables.rules[signature] = tables.build_rules(signature)
        self.orbit, self.translations, self.roles, self._passed = rules

    def first_of_orbit(self, a: tuple[int, ...]) -> bool:
        return all(_image(action, a) >= a for action in self.orbit)

    def period_redundant(self, a: tuple[int, ...]) -> bool:
        return any(_image(action, a) == a for action in self.translations)

    def group(self, a: tuple[int, ...]) -> FriezeGroup:
        """The group of a's pattern; a's period must not be redundant."""
        if not self.roles:
            return FriezeGroup.P1
        roles = {role for role, action in self.roles
                 if _image(action, a) == a}
        return _GROUP_OF_FLAGS["h" in roles, "v" in roles, "g" in roles,
                               "r" in roles]

    def assignments(self, group: Optional[FriezeGroup],
                    ) -> Iterable[tuple[int, ...]]:
        """The assignments, in enumeration order, that are first of their
        orbit and, with a ``group``, have a period that is not redundant
        and that group.  A cell set whose only self-map is the identity
        passes every assignment, all of group p1, unread; the flags of any
        other are judged once per signature and group."""
        every = _assignment_indices(self.bounds, self.n)
        if not (self.orbit or self.translations or self.roles):
            return every if group in (None, FriezeGroup.P1) else ()
        flags = self._passed.get(group)
        if flags is None:
            flags = self._passed[group] = bytes(
                self.first_of_orbit(a) and (group is None or (
                    not self.period_redundant(a) and self.group(a) is group))
                for a in every)
            every = _assignment_indices(self.bounds, self.n)
        return itertools.compress(every, flags)


class _CellSet:
    """A cell set that a scan keeps, with its forms' orbit, period and
    group verdicts (``judge``, on the rules its signature shares) and, for
    the forms whose period is not redundant, their verdict for each column
    k, the scan's kind ``tables.kinds[k]``.

    Such a form has the cells and period of its canonical all-king pattern
    (the cell set's cells, sorted), so one ``KernelGeometry``, built when
    the first column is judged, serves them all.  Each piece has one flat
    list of move masks, indexed by the scan's move ids (``_ScanTables``)
    and filled on first need from its class's row of the translation's
    paths (``_MoveRows``): the bits of a path up to and including its
    first occupied class, or the geometry's ``reach`` for a ride too long
    to list.  A kind's reach mask per piece and orientation is the OR of
    its moves' masks, built when a form first needs it.  Per column, a
    form ORs the reach masks of the pieces facing each way and takes that
    side's allies (the pieces facing the same way) out once; what that
    leaves of the neighborhood is uncontrolled, and the geometry's
    ``verdict`` judges it.  Decorations never change control, so the masks
    are memoized by the orientations.  ``matches`` stops at the first
    column that misses; a form that matches has every column's mask, and
    ``statuses`` reads them, each spelled out once per mask by the
    geometry's memoized ``status``.
    """

    def __init__(self, rows: _MoveRows, cells: list[Vec]) -> None:
        """A cell set of ``rows.t``; its cells are classes of that
        translation's pool, which ``rows`` knows the paths from."""
        self.tables, self.t, self.cells = rows.tables, rows.t, cells
        self.rows = rows
        self.judge = _FormJudge(self.tables, self.t, cells)
        self.geometry: Optional[KernelGeometry] = None
        # per kind, orientations -> uncontrolled mask
        self._left = [{} for _ in self.tables.kinds]

    def form(self, a: tuple[int, ...]) -> Form:
        return _form(self.tables.bounds, self.t, self.cells, a,
                     self.tables.attributes)

    def _build(self) -> None:
        g = self.geometry = KernelGeometry(self.t, tuple(sorted(self.cells)))
        self._bits = [g.bits.get(c, 0) for c in self.cells]
        self._paths = [self.rows.row(c) for c in self.cells]
        # per piece, the mask of each move id (on first use)
        self._moves = [[None] * len(self.tables.moves) for _ in self.cells]
        # per kind and orientation, each piece's reach mask (on first use)
        self._reach = [[None] * len(ids) for ids in self.tables.ids]

    def _reached(self, ids: tuple[int, ...]) -> list[int]:
        """Each piece's reach mask by the moves ``ids``."""
        g, moves = self.geometry, self.tables.moves
        bits, occupied = g.bits, g.occupied
        out = []
        for cell, row, masks in zip(self.cells, self._paths, self._moves):
            reached = 0
            for m in ids:
                mask = masks[m]
                if mask is None:
                    path = row[m]
                    if path is None:
                        mask = g.reach(cell, *moves[m])
                    else:
                        mask = 0
                        for c in path:
                            mask |= bits.get(c, 0)
                            if c in occupied:
                                break
                    masks[m] = mask
                reached |= mask
            out.append(reached)
        return out

    def _uncontrolled(self, k: int, os: tuple[int, ...]) -> int:
        """The mask kinds[k] leaves uncontrolled, the pieces facing os."""
        if self.geometry is None:
            self._build()
        reach = self._reach[k]
        reached, allies = [0, 0], [0, 0]  # per side
        for i, j in enumerate(os):
            masks = reach[j]
            if masks is None:
                masks = reach[j] = self._reached(self.tables.ids[k][j])
            reached[j] |= masks[i]
            allies[j] |= self._bits[i]
        return self.geometry.every & ~((reached[0] & ~allies[0])
                                       | (reached[1] & ~allies[1]))

    def verdict(self, k: int, a: tuple[int, ...]) -> Verdict:
        """The verdict of kinds[k] on a's form (its period not redundant)."""
        os, left = a[:len(self.cells)], self._left[k]
        mask = left.get(os)
        if mask is None:
            mask = left[os] = self._uncontrolled(k, os)
        return self.geometry.verdict(mask)

    def matches(self, a: tuple[int, ...], wanted: Sequence[bool],
                order: list[int]) -> bool:
        """Whether each kinds[k] satisfies on a's form iff ``wanted[k]``,
        judged in ``order`` up to the first miss, moved to its front; as
        ``verdict`` judges each column."""
        os = a[:len(self.cells)]
        for i, k in enumerate(order):
            left = self._left[k]
            mask = left.get(os)
            if mask is None:
                mask = left[os] = self._uncontrolled(k, os)
            if (self.geometry.verdict(mask) is not Verdict.FAILS) != wanted[k]:
                order.insert(0, order.pop(i))
                return False
        return True

    def statuses(self, a: tuple[int, ...]) -> dict[PieceKind, NccStatus]:
        """The status of each kind on a's form, read off the uncontrolled
        masks that judging every column of a memoized."""
        os = a[:len(self.cells)]
        return {k: self.geometry.status(left[os])
                for k, left in zip(self.tables.kinds, self._left)}


def _scan(bounds: SearchBounds, kinds: Sequence[PieceKind],
          group: Optional[FriezeGroup] = None,
          ) -> Iterator[tuple[_CellSet, tuple[int, ...]]]:
    """The first form of each orbit in the bounded space, in enumeration
    order, as its cell set (judging ``kinds``) and its assignment:
    ``(cell_set, a)``.  With a ``group``, the forms whose pattern has a
    period shorter than t or another group are skipped.  The position test
    (``_first_translate``) and the group's filter on translations and
    self-maps (``_has_roles``) skip whole cell sets; the mirror skips
    whole translations, and a group's roles propose the combinations its
    filter can keep (``_combinations``)."""
    roles = GROUP_ROLES[group] if group is not None else ""
    seen_cells: set = set()
    tables = _ScanTables(bounds, kinds)
    for t in _period_candidates(bounds):
        if tables.mirror and t[0] and t[1] > 0:
            continue  # each cell set mirrors one on (tx, -ty), scanned before
        required = [(role, role_linear_part(role, t)) for role in roles]
        if any(S is None for _, S in required):
            continue
        pool = _cell_pool(bounds, t)
        classes = {c: reduce_cell(c, t) for c in pool}
        rows = _MoveRows(tables, t, pool)
        for combo in _combinations(bounds, t, pool, classes, roles):
            if not _first_translate(combo):
                continue
            cells = [classes[c] for c in combo]
            n = len(cells)
            if len(set(cells)) < n or not _has_roles(t, cells, required):
                continue
            key = _cell_key(t, cells, tables.mirror)
            if key in seen_cells:
                continue  # a translate or mirror of an earlier cell set
            seen_cells.add(key)
            cell_set = _CellSet(rows, cells)
            for a in cell_set.judge.assignments(group):
                yield cell_set, a


def _find(bounds: SearchBounds, target: Mapping[PieceKind, bool],
          group: Optional[FriezeGroup], limit: Optional[int],
          report: Callable[[_CellSet, tuple[int, ...]], object]) -> list:
    """``report(cell_set, a)`` of the first ``limit`` (all, if None) forms
    that ``_scan`` yields for ``group`` whose period is not redundant and on
    which each kind of ``target`` satisfies iff its value."""
    # a limit below 1 cannot stop a scan before its first report, and an
    # empty result would read as a certificate of exhaustion
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    kinds = tuple(target)
    wanted = [target[k] for k in kinds]
    order = list(range(len(kinds)))  # the column that last missed first
    out = []
    for cell_set, a in _scan(bounds, kinds, group):
        # a group scan has skipped the redundant periods
        if group is None and cell_set.judge.period_redundant(a):
            continue
        if cell_set.matches(a, wanted, order):
            out.append(report(cell_set, a))
            if len(out) == limit:
                break
    return out


def find_crystal(group: FriezeGroup, target: Mapping[PieceKind, bool],
                 bounds: SearchBounds, *, limit: Optional[int] = None,
                 ) -> list[CrystalReport]:
    """All orbit representatives within bounds whose classified group is
    exactly ``group`` and whose satisfies-vector equals ``target``.

    An empty list certifies exhaustion of the bounded space.  ``limit``
    stops the scan early after that many reports; it must be at least 1.
    """
    def report(cell_set: _CellSet, a: tuple[int, ...]) -> CrystalReport:
        form = cell_set.form(a)
        details = cell_set.statuses(a)
        # canonical as built: the cells are distinct classes mod t (sorted,
        # as canonicalize sorts pieces), t has canonical sign and a group
        # scan skips the forms of redundant period
        pattern = PeriodicPattern(tuple(PlacedPiece(c, KING, o, d)
                                        for c, o, d in sorted(form.cells)),
                                  form.t)
        return CrystalReport(form, pattern, group,
                             {k: s.satisfies for k, s in details.items()},
                             details)
    return _find(bounds, target, group, limit, report)


@dataclass(frozen=True)
class SpecialFormReport:
    form: Form
    statuses: dict[PieceKind, NccStatus]
    partition: dict[Vec, RegionClass]


def find_special_form(bounds: SearchBounds, *,
                      limit: Optional[int] = None) -> list[SpecialFormReport]:
    """Forms on which every standard kind satisfies the nearly-complete
    predicate, annotated with the region partition for comparing which
    region each kind leaves uncontrolled.  ``limit``, if given, must be at
    least 1."""
    return _find(bounds, dict.fromkeys(KIND_COLUMNS, True), None, limit,
                 lambda cell_set, a: SpecialFormReport(
                     cell_set.form(a), cell_set.statuses(a),
                     cell_set.geometry.partition))


@dataclass(frozen=True)
class DualityExhibits:
    gold_complete: Optional[Form] = None
    silver_nearly: Optional[Form] = None
    gold_rook: Optional[PeriodicPattern] = None
    silver_bishop: Optional[PeriodicPattern] = None


def find_duality(bounds: SearchBounds) -> DualityExhibits:
    """Search both duality exhibits.

    (i)  a form whose all-gold pattern is complete while its all-silver
         pattern is nearly complete (strictly);
    (ii) a two-kind gold+rook pattern that is complete whose kind-swapped
         silver+bishop counterpart is nearly complete.
    """
    exhibit: Optional[Form] = None
    pair: Optional[tuple[PeriodicPattern, PeriodicPattern]] = None

    for cell_set, a in _scan(bounds, (GOLD, SILVER)):
        form = cell_set.form(a)
        if exhibit is None:
            if cell_set.judge.period_redundant(a):
                # judged on its canonical pattern, of the shorter period
                vector = ncc_vector(form, (GOLD, SILVER))
                g, s = vector[GOLD].verdict, vector[SILVER].verdict
            else:  # silver judged only when gold is complete
                g = cell_set.verdict(0, a)
                s = cell_set.verdict(1, a) if g is Verdict.COMPLETE else None
            if g is Verdict.COMPLETE and s is Verdict.NEARLY_COMPLETE:
                exhibit = form

        if pair is None and len(form.cells) >= 2:
            n = len(form.cells)
            for mask in range(1, 2 ** n - 1):
                kinds_c = [GOLD if mask & (1 << i) else ROOK
                           for i in range(n)]
                kinds_d = [SILVER if k is GOLD else BISHOP for k in kinds_c]
                c = form.instantiate_kinds(kinds_c)
                d = form.instantiate_kinds(kinds_d)
                # judged on their own geometry: mixed kinds can keep the
                # longer period of a motif that is redundant for one kind
                if ncc_status(c).verdict is not Verdict.COMPLETE:
                    continue
                if ncc_status(d).verdict is Verdict.NEARLY_COMPLETE:
                    pair = (c, d)
                    break

        if exhibit is not None and pair:
            break

    return DualityExhibits(
        gold_complete=exhibit, silver_nearly=exhibit,
        gold_rook=pair[0] if pair else None,
        silver_bishop=pair[1] if pair else None)


def satisfies_table(fixtures: Mapping[FriezeGroup, PeriodicPattern],
                    columns: Sequence[PieceKind] = KIND_COLUMNS,
                    ) -> dict[FriezeGroup, dict[PieceKind, NccStatus]]:
    """Full per-kind verdicts for each fixture crystal, one per column."""
    out: dict[FriezeGroup, dict[PieceKind, NccStatus]] = {}
    for group in ROW_ORDER:
        out[group] = ncc_vector(form_of(fixtures[group]), columns)
    return out


def fragility_check(fixtures: Mapping[FriezeGroup, PeriodicPattern],
                    substitution: Mapping[PieceKind, Moveset],
                    ) -> list[tuple[FriezeGroup, PieceKind]]:
    """Cells of the satisfies-table that change under a moveset substitution.
    A substituted column holds a different kind: the same name with the
    substituted moveset.  An unsubstituted column holds the same kind on
    both sides, so one verdict per fixture covers the base columns and the
    substituted kinds."""
    groups = {classify_frieze(fixtures[g]) for g in ROW_ORDER}
    if groups != set(ROW_ORDER):
        raise PatternError("fixtures must classify to the 7 distinct groups")
    swaps = [(k, PieceKind(k.name, substitution[k]))
             for k in KIND_COLUMNS if k in substitution]
    kinds = KIND_COLUMNS + tuple(new for _, new in swaps)
    changed = []
    for group in ROW_ORDER:
        status = ncc_vector(form_of(fixtures[group]), kinds)
        changed += [(group, kind) for kind, new in swaps
                    if status[kind].satisfies != status[new].satisfies]
    return changed
