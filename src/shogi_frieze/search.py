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
combinations: a pattern with the group is fixed by an isometry of each
linear part its roles require (``symmetry.GROUP_ROLES``), so its classes
mod t are too, and a combination that no such map sends onto itself is
skipped with all its assignments.

Pruning works on orbits under translations and, when every searched kind
has a left-right symmetric moveset, the vertical mirror: a cell
combination whose classes mod t are such an image of an earlier
combination's is skipped with all its assignments (``_cell_key``).  The
rest are judged by their self-maps, the maps c -> S c + o that send their
classes mod t onto themselves, listed once per combination
(``_FormJudge``).  An assignment is kept when no translation or mirror
self-map sends it to an earlier one, so the scan yields the first form of
each orbit in enumeration order, as the unpruned scan filtered by orbit
does.  The same self-maps give the period and the group: a form's period is
redundant when a translation self-map other than the identity fixes it,
and its group is that of the self-maps that fix it, so ``find_crystal``
instantiates a form only once it has the searched group.  Translations and
the mirror carry a cell combination that passes the group filter to one
that passes it, so the filter keeps this order: ``find_crystal`` reports
what filtering every form of the space by orbit, period, group and
verdicts reports, in the same order (both differentially tested).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .control import (NccStatus, RegionClass, Verdict, VerdictKernel,
                      ncc_status)
from .geometry import UNIT_DIRS, Vec, canonical_sign, reduce_cell
from .pattern import Form, PatternError, PeriodicPattern, form_of
from .pieces import (BISHOP, GOLD, KING, KNIGHT, LANCE, PAWN, ROOK, SILVER,
                     Moveset, Orientation, PieceKind)
from .symmetry import (_LINEAR_PARTS, GROUP_ROLES, FriezeGroup, Isometry,
                       SymmetryFlags, _flag, _listed_offsets, classify_frieze,
                       group_of, role_linear_part)

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


# ---------------------------------------------------------------------------
# Per-form evaluation: a form instantiated uniformly with any kind has the
# cells and period of its all-king pattern (canonicalization never looks at
# which kind a uniform motif carries), so one ``VerdictKernel`` built on
# that pattern judges every kind column: each column is a union of memoized
# move masks and one verdict, with no instantiation, canonicalization or
# control set per column.  Searches build the kernel only for forms that
# pass their cheaper filters (period, group).  The kernel's geometry
# (neighborhood, partition and move masks) depends only on the period and
# cells, which the forms of one cell set share as ``_scan`` yields them back
# to back, so each kernel is built on the previous form's geometry, which
# ``VerdictKernel`` uses only while the period and cells match.

def ncc_vector(form: Form, kinds: Iterable[PieceKind] = KIND_COLUMNS,
               ) -> dict[PieceKind, NccStatus]:
    """Verdict for the form instantiated uniformly with each kind."""
    kinds = tuple(kinds)
    if not kinds:
        return {}
    kernel = VerdictKernel(form.instantiate(KING))
    return {k: kernel.uniform(k) for k in kinds}


# ---------------------------------------------------------------------------
# Enumeration

_DECORS: tuple[Optional[Vec], ...] = (None,) + UNIT_DIRS


def _period_candidates(bounds: SearchBounds) -> list[Vec]:
    mp = bounds.max_period
    out = []
    for a in range(0, mp + 1):
        for b in range(-mp, mp + 1):
            t = (a, b)
            if t == (0, 0) or canonical_sign(t) != t:
                continue
            out.append(t)
    out.sort(key=lambda t: (max(abs(t[0]), abs(t[1])), t))
    return out


def _cell_pool(bounds: SearchBounds, t: Vec) -> list[Vec]:
    w, h = bounds.box
    if t[1] == 0:
        w = min(w, t[0])
    cells = [(x, y) for x in range(w) for y in range(h)]
    return cells


def _cell_sets(bounds: SearchBounds, t: Vec) -> Iterator[list[Vec]]:
    """Each combination of pool cells that lie in distinct classes mod t,
    reduced mod t, in enumeration order."""
    pool = _cell_pool(bounds, t)
    for n in range(1, bounds.max_motif_pieces + 1):
        for cells in itertools.combinations(pool, n):
            reduced = [reduce_cell(c, t) for c in cells]
            if len(set(reduced)) == n:
                yield reduced


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
    for os in itertools.product(range(len(orients)), repeat=n):
        for ds in itertools.product(range(len(decors)), repeat=n):
            yield os + ds


def _form(bounds: SearchBounds, t: Vec, cells: list[Vec],
          a: tuple[int, ...]) -> Form:
    """The form of the assignment ``a`` on ``cells``."""
    orients, decors = _attributes(bounds)
    n = len(cells)
    return Form(tuple(zip(cells, [orients[i] for i in a[:n]],
                          [decors[i] for i in a[n:]])), t)


def _enumerate_forms(bounds: SearchBounds) -> Iterator[Form]:
    """Every form of the bounded space, unpruned: the naive reference."""
    for t in _period_candidates(bounds):
        for cells in _cell_sets(bounds, t):
            for a in _assignment_indices(bounds, len(cells)):
                yield _form(bounds, t, cells, a)


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


def _kinds_mirror_safe(kinds: Sequence[PieceKind]) -> bool:
    def x_sym(m):
        flip = lambda s: frozenset((-dx, dy) for dx, dy in s)
        return flip(m.steps) == m.steps and flip(m.rides) == m.rides
    return all(x_sym(k.moveset) for k in kinds)


def orbit_key(form: Form, use_mirror: bool):
    """The least translation key of the form and, with ``use_mirror``, of
    its vertical mirror image (x -> -x)."""
    cells = [(x, y, (o.value, d is not None, d or (0, 0)))
             for (x, y), o, d in form.cells]
    key = _translation_key(form.t, cells)
    if use_mirror:
        mirrored = [(-x, y, (ov, has, (-d[0], d[1])))
                    for x, y, (ov, has, d) in cells]
        key = min(key, _translation_key(
            canonical_sign((-form.t[0], form.t[1])), mirrored))
    return key


def _cell_key(t: Vec, cells: list[Vec], use_mirror: bool):
    """``orbit_key`` of a bare cell set: its classes mod t up to
    translation and, with ``use_mirror``, the vertical mirror."""
    key = _translation_key(t, [(x, y, ()) for x, y in cells])
    if use_mirror:
        key = min(key, _translation_key(canonical_sign((-t[0], t[1])),
                                        [(-x, y, ()) for x, y in cells]))
    return key


# ---------------------------------------------------------------------------
# Self-maps: the verdicts on a cell set's forms without their patterns

_TRANSLATION: Vec = (1, 1)
_X_MIRROR: Vec = (-1, 1)


def _self_maps(t: Vec, cells: list[Vec],
               S: Vec) -> list[tuple[Vec, tuple[int, ...]]]:
    """Every map c -> S c + o that sends the classes ``cells`` (distinct
    and reduced mod t, with S t = +-t) onto themselves, as ``(o, perm)``:
    class i goes to class perm[i].  The map sends the first class to some
    class j, so o = c_j - S c_0 modulo t, one candidate per j, as
    ``detect_symmetries`` takes its candidates."""
    index = {c: i for i, c in enumerate(cells)}
    (sx, sy), (tx, ty) = S, t
    tt = tx * tx + ty * ty
    x0, y0 = cells[0]
    out = []
    for xj, yj in cells:
        ox, oy = xj - sx * x0, yj - sy * y0
        perm = []
        for x, y in cells:  # reduce_cell, written out
            u, v = sx * x + ox, sy * y + oy
            n = (u * tx + v * ty) // tt
            k = index.get((u - n * tx, v - n * ty))
            if k is None:
                break
            perm.append(k)
        else:
            out.append(((ox, oy), tuple(perm)))
    return out


def _image(action, a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([table[a[i]] for i, table in action])


class _FormJudge:
    """The orbit, period and group verdicts on the forms of one cell set,
    read off its self-maps (``_self_maps``) with every S that can map a
    frieze with period t onto itself (S t = +-t).  A self-map acts
    on an assignment (``_assignment_indices``) a: it sends a to the b with
    b[perm[i]] the image of a[i], the orientation turned over when S flips
    y and the decoration mapped by S (-1 for an orientation the bounds
    exclude).  Its action is stored as ``(source, table)`` per entry of b.

    * Orbit: a is the first form of its orbit iff no translation, and with
      ``use_mirror`` no x-mirror (x -> -x), sends it to an earlier
      assignment: the orbit's other forms on these cells are its images
      under those self-maps, and forms on other cells lie on other cell
      sets (``_cell_key``).
    * Period: a pattern has a period shorter than t iff it has a
      translation symmetry that is no multiple of t, so a's period is
      redundant iff a translation self-map other than the identity fixes
      it.
    * Group: on its own period, the pattern's symmetries are the self-maps
      that fix a.  Their roles are ``detect_symmetries``'s: a self-map's
      offsets are listed by ``_listed_offsets`` (an unlisted one is no
      symmetry of a frieze with period t) and named by ``_flag``.
    """

    def __init__(self, bounds: SearchBounds, t: Vec, cells: list[Vec],
                 use_mirror: bool) -> None:
        orients, decors = _attributes(bounds)
        n = len(cells)
        self.orbit: list = []
        self.translations: list = []
        self.roles: list[tuple[str, list]] = []
        for S in (_TRANSLATION,) + _LINEAR_PARTS:
            if (S[0] * t[0], S[1] * t[1]) not in (t, (-t[0], -t[1])):
                continue
            turn = (lambda o: o.flipped) if S[1] < 0 else (lambda o: o)
            otable = [orients.index(turn(o)) if turn(o) in orients else -1
                      for o in orients]
            dtable = [decors.index(None if d is None
                                   else (S[0] * d[0], S[1] * d[1]))
                      for d in decors]
            for o, perm in _self_maps(t, cells, S):
                source = [0] * n
                for i, k in enumerate(perm):
                    source[k] = i
                action = ([(i, otable) for i in source]
                          + [(n + i, dtable) for i in source])
                if S == _TRANSLATION:
                    if o != (0, 0):
                        self.translations.append(action)
                        self.orbit.append(action)
                    continue
                if S == _X_MIRROR and use_mirror:
                    self.orbit.append(action)
                listed = _listed_offsets(S, o, t)
                if listed:
                    self.roles.append((_flag(Isometry(S, listed[0]), t),
                                       action))

    def first_of_orbit(self, a: tuple[int, ...]) -> bool:
        return all(_image(action, a) >= a for action in self.orbit)

    def period_redundant(self, a: tuple[int, ...]) -> bool:
        return any(_image(action, a) == a for action in self.translations)

    def group(self, a: tuple[int, ...]) -> FriezeGroup:
        """The group of a's pattern; a's period must not be redundant."""
        roles = {role for role, action in self.roles
                 if _image(action, a) == a}
        return group_of(SymmetryFlags(*(r in roles for r in "hvgr"), ()))


def _scan(bounds: SearchBounds, group: Optional[FriezeGroup] = None, *,
          use_mirror: bool = True) -> Iterator[tuple[Form, PeriodicPattern]]:
    """The first form of each orbit in the bounded space, in enumeration
    order, each with its canonical all-king pattern: ``(form, pattern)``.
    Forms that make no valid pattern are skipped.  With a ``group``, so
    are the forms whose pattern has a period shorter than t or another
    group: a form is instantiated only once it passes.  Whole cell sets
    are skipped on translations that the group's isometries cannot fix,
    and when for one of their linear parts no map sends the cells onto
    themselves."""
    roles = GROUP_ROLES[group] if group is not None else ""
    seen_cells: set = set()
    for t in _period_candidates(bounds):
        required = {role_linear_part(role, t) for role in roles}
        if None in required:
            continue
        for cells in _cell_sets(bounds, t):
            if not all(_self_maps(t, cells, S) for S in required):
                continue
            key = _cell_key(t, cells, use_mirror)
            if key in seen_cells:
                continue  # a translate or mirror of an earlier cell set
            seen_cells.add(key)
            judge = _FormJudge(bounds, t, cells, use_mirror)
            for a in _assignment_indices(bounds, len(cells)):
                if not judge.first_of_orbit(a):
                    continue
                if group is not None and (judge.period_redundant(a)
                                          or judge.group(a) is not group):
                    continue
                form = _form(bounds, t, cells, a)
                try:
                    pattern = form.instantiate(KING)
                except PatternError:
                    continue
                yield form, pattern


def _check_limit(limit: Optional[int]) -> None:
    # a limit below 1 cannot stop a scan before its first report, and an
    # empty result would read as a certificate of exhaustion
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")


def find_crystal(group: FriezeGroup, target: Mapping[PieceKind, bool],
                 bounds: SearchBounds, *, limit: Optional[int] = None,
                 ) -> list[CrystalReport]:
    """All orbit representatives within bounds whose classified group is
    exactly ``group`` and whose satisfies-vector equals ``target``.

    An empty list certifies exhaustion of the bounded space.  ``limit``
    stops the scan early after that many reports; it must be at least 1.
    """
    _check_limit(limit)
    kinds = tuple(target)
    reports: list[CrystalReport] = []
    scan = _scan(bounds, group, use_mirror=_kinds_mirror_safe(kinds))
    geometry = None
    for form, pattern in scan:
        kernel = VerdictKernel(pattern, geometry)
        geometry = kernel.geometry
        details: dict[PieceKind, NccStatus] = {}
        ok = True
        for kind in kinds:
            st = kernel.uniform(kind)
            details[kind] = st
            if st.satisfies != target[kind]:
                ok = False
                break
        if not ok:
            continue
        reports.append(CrystalReport(
            form, pattern, group,
            {k: s.satisfies for k, s in details.items()}, details))
        if limit is not None and len(reports) >= limit:
            break
    return reports


@dataclass(frozen=True)
class SpecialFormReport:
    form: Form
    statuses: dict[PieceKind, NccStatus]
    partition: dict[Vec, RegionClass]

    def region_control(self) -> dict[PieceKind, dict[RegionClass, bool]]:
        """Per kind, whether each (nonempty) region is fully controlled."""
        cells_of = {r: {c for c, rr in self.partition.items() if rr is r}
                    for r in RegionClass}
        out: dict[PieceKind, dict[RegionClass, bool]] = {}
        for kind, st in self.statuses.items():
            out[kind] = {r: cells_of[r].isdisjoint(st.uncontrolled)
                         for r in RegionClass if cells_of[r]}
        return out


def find_special_form(bounds: SearchBounds, *,
                      limit: Optional[int] = None) -> list[SpecialFormReport]:
    """Forms on which every standard kind satisfies the nearly-complete
    predicate, annotated with the region partition for comparing which
    region each kind leaves uncontrolled.  ``limit``, if given, must be at
    least 1."""
    _check_limit(limit)
    out: list[SpecialFormReport] = []
    geometry = None
    for form, pattern in _scan(bounds):
        if pattern.t != form.t:
            continue
        kernel = VerdictKernel(pattern, geometry)
        geometry = kernel.geometry
        statuses: dict[PieceKind, NccStatus] = {}
        ok = True
        for kind in KIND_COLUMNS:
            st = kernel.uniform(kind)
            statuses[kind] = st
            if not st.satisfies:
                ok = False
                break
        if not ok:
            continue
        out.append(SpecialFormReport(form, statuses, kernel.partition))
        if limit is not None and len(out) >= limit:
            break
    return out


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
    gold_form: Optional[Form] = None
    silver_form: Optional[Form] = None
    pair: Optional[tuple[PeriodicPattern, PeriodicPattern]] = None

    geometry = None
    for form, pattern in _scan(bounds):
        if gold_form is None or silver_form is None:
            kernel = VerdictKernel(pattern, geometry)
            geometry = kernel.geometry
            g = kernel.uniform(GOLD)
            s = kernel.uniform(SILVER)
            if (g.verdict is Verdict.COMPLETE
                    and s.verdict is Verdict.NEARLY_COMPLETE):
                gold_form = gold_form or form
                silver_form = silver_form or form

        if pair is None and len(form.cells) >= 2:
            n = len(form.cells)
            for mask in range(1, 2 ** n - 1):
                kinds_c = [GOLD if mask & (1 << i) else ROOK
                           for i in range(n)]
                kinds_d = [SILVER if k is GOLD else BISHOP for k in kinds_c]
                try:
                    c = form.instantiate_kinds(kinds_c)
                    d = form.instantiate_kinds(kinds_d)
                except PatternError:
                    continue
                # judged on their own geometry: mixed kinds can keep the
                # longer period of a motif that is redundant for one kind
                if ncc_status(c).verdict is not Verdict.COMPLETE:
                    continue
                if ncc_status(d).verdict is Verdict.NEARLY_COMPLETE:
                    pair = (c, d)
                    break

        if gold_form is not None and silver_form is not None and pair:
            break

    return DualityExhibits(
        gold_complete=gold_form, silver_nearly=silver_form,
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
    substituted moveset."""
    groups = {classify_frieze(fixtures[g]) for g in ROW_ORDER}
    if groups != set(ROW_ORDER):
        raise PatternError("fixtures must classify to the 7 distinct groups")
    columns = [PieceKind(k.name, substitution[k]) if k in substitution else k
               for k in KIND_COLUMNS]
    base = satisfies_table(fixtures)
    subst = satisfies_table(fixtures, columns)
    changed = []
    for group in ROW_ORDER:
        for kind, column in zip(KIND_COLUMNS, columns):
            if base[group][kind].satisfies != subst[group][column].satisfies:
                changed.append((group, kind))
    return changed
