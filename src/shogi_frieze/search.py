"""Bounded exhaustive search for crystals, special forms and dualities.

Enumeration order (part of the external contract, reports are returned in
discovery order): translation vectors sorted by (max component, dx, dy);
then motif piece count ascending; then cell combinations in lexicographic
order over the bounding box; then orientation assignments (Up before
Down); then decoration assignments (none first, then the eight unit
directions counterclockwise from east).

Pruning keeps only the first representative of each candidate's orbit
under translations and, when every searched kind has a left-right
symmetric moveset, the vertical mirror.  Pruned and unpruned runs find the
same orbit representatives (differentially tested).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .control import (NccStatus, RegionClass, Verdict, _verdict_from_parts,
                      control_of_pattern, neighborhood,
                      partition_neighborhood)
from .geometry import UNIT_DIRS, Vec, canonical_sign, reduce_cell, sub
from .pattern import Form, PatternError, PeriodicPattern, form_of
from .pieces import (BISHOP, GOLD, KING, KNIGHT, LANCE, PAWN, ROOK, SILVER,
                     Moveset, Orientation, PieceKind)
from .symmetry import FriezeGroup, classify_frieze

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
    kinds: tuple[PieceKind, ...] = KIND_COLUMNS

    def __post_init__(self) -> None:
        if (self.max_motif_pieces < 0 or self.max_period < 1
                or self.box[0] < 1 or self.box[1] < 1):
            raise ValueError("bounds must be positive")
        if not self.kinds:
            raise ValueError("kinds must be nonempty")


@dataclass(frozen=True)
class CrystalReport:
    form: Form
    pattern: PeriodicPattern
    group: FriezeGroup
    vector: dict[PieceKind, bool]
    details: dict[PieceKind, NccStatus]


# ---------------------------------------------------------------------------
# Fast per-form evaluation: neighborhood and partition depend only on the
# occupied cells, so they are computed once and reused for every kind.

def _form_geometry(form: Form):
    pattern = form.instantiate(KING)
    return pattern, neighborhood(pattern), partition_neighborhood(pattern)


def _status_for_kind(form: Form, kind: PieceKind, nbhd,
                     partition) -> NccStatus:
    p = form.instantiate(kind)
    return _verdict_from_parts(nbhd, partition, control_of_pattern(p))


def ncc_vector(form: Form, kinds: Iterable[PieceKind] = KIND_COLUMNS,
               ) -> dict[PieceKind, NccStatus]:
    """Verdict for the form instantiated uniformly with each kind."""
    kinds = tuple(kinds)
    if not kinds:
        return {}
    _, nbhd, partition = _form_geometry(form)
    return {k: _status_for_kind(form, k, nbhd, partition) for k in kinds}


# ---------------------------------------------------------------------------
# Enumeration

_DECORS: tuple[Optional[Vec], ...] = (None,) + UNIT_DIRS


def _period_candidates(bounds: SearchBounds,
                       horizontal_only: bool) -> list[Vec]:
    mp = bounds.max_period
    out = []
    for a in range(0, mp + 1):
        for b in range(-mp, mp + 1):
            t = (a, b)
            if t == (0, 0) or canonical_sign(t) != t:
                continue
            if horizontal_only and b != 0:
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


def _enumerate_forms(bounds: SearchBounds,
                     horizontal_only: bool = False) -> Iterator[Form]:
    orients = sorted(bounds.orientations, key=lambda o: o is Orientation.DOWN)
    decors = _DECORS if bounds.allow_decorations else (None,)
    for t in _period_candidates(bounds, horizontal_only):
        pool = _cell_pool(bounds, t)
        for n in range(1, bounds.max_motif_pieces + 1):
            for cells in itertools.combinations(pool, n):
                reduced = [reduce_cell(c, t) for c in cells]
                if len(set(reduced)) != n:
                    continue
                for os in itertools.product(orients, repeat=n):
                    for ds in itertools.product(decors, repeat=n):
                        yield Form(tuple(zip(reduced, os, ds)), t)


def _translation_key(form: Form):
    """Lexicographically minimal re-anchoring of the form's motif."""
    best = None
    for (anchor, _, _) in form.cells:
        moved = sorted(
            ((reduce_cell(sub(c, anchor), form.t), o.value, d is not None,
              d or (0, 0)) for c, o, d in form.cells))
        if best is None or moved < best:
            best = moved
    return (form.t, tuple(best))


def _mirrored(form: Form) -> Form:
    cells = tuple(((-c[0], c[1]), o, (-d[0], d[1]) if d else None)
                  for c, o, d in form.cells)
    return Form(cells, canonical_sign((-form.t[0], form.t[1])))


def _kinds_mirror_safe(kinds: Sequence[PieceKind]) -> bool:
    def x_sym(m):
        flip = lambda s: frozenset((-dx, dy) for dx, dy in s)
        return flip(m.steps) == m.steps and flip(m.rides) == m.rides
    return all(x_sym(k.moveset) for k in kinds)


def orbit_key(form: Form, use_mirror: bool):
    key = _translation_key(form)
    if use_mirror:
        key = min(key, _translation_key(_mirrored(form)))
    return key


def _scan(bounds: SearchBounds, *, horizontal_only: bool = False,
          use_mirror: bool = True, prune: bool = True) -> Iterator[tuple]:
    """The forms of the bounded space in enumeration order, each with its
    geometry: ``(form, pattern, nbhd, partition)``.  With ``prune`` only
    the first form of each orbit is yielded; forms that make no valid
    pattern are skipped."""
    seen: set = set()
    for form in _enumerate_forms(bounds, horizontal_only):
        if prune:
            key = orbit_key(form, use_mirror)
            if key in seen:
                continue
            seen.add(key)
        try:
            pattern, nbhd, partition = _form_geometry(form)
        except PatternError:
            continue
        yield form, pattern, nbhd, partition


def find_crystal(group: FriezeGroup, target: Mapping[PieceKind, bool],
                 bounds: SearchBounds, *, limit: Optional[int] = None,
                 prune: bool = True) -> list[CrystalReport]:
    """All orbit representatives within bounds whose classified group is
    exactly ``group`` and whose satisfies-vector equals ``target``.

    An empty list certifies exhaustion of the bounded space.  ``limit``
    stops the scan early after that many reports.
    """
    kinds = tuple(target)
    reports: list[CrystalReport] = []
    scan = _scan(bounds,
                 horizontal_only=group not in (FriezeGroup.P1, FriezeGroup.P2),
                 use_mirror=_kinds_mirror_safe(kinds), prune=prune)
    for form, pattern, nbhd, partition in scan:
        if pattern.t != form.t:
            continue  # motif was redundant; the smaller period is its rep
        if classify_frieze(pattern) is not group:
            continue
        details: dict[PieceKind, NccStatus] = {}
        ok = True
        for kind in kinds:
            st = _status_for_kind(form, kind, nbhd, partition)
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
    region each kind leaves uncontrolled."""
    out: list[SpecialFormReport] = []
    for form, pattern, nbhd, partition in _scan(bounds):
        if pattern.t != form.t:
            continue
        statuses: dict[PieceKind, NccStatus] = {}
        ok = True
        for kind in KIND_COLUMNS:
            st = _status_for_kind(form, kind, nbhd, partition)
            statuses[kind] = st
            if not st.satisfies:
                ok = False
                break
        if not ok:
            continue
        out.append(SpecialFormReport(form, statuses, partition))
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

    for form, _, nbhd, partition in _scan(bounds):
        if gold_form is None or silver_form is None:
            g = _status_for_kind(form, GOLD, nbhd, partition)
            s = _status_for_kind(form, SILVER, nbhd, partition)
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
                st_c = _verdict_from_parts(nbhd, partition,
                                           control_of_pattern(c))
                if st_c.verdict is not Verdict.COMPLETE:
                    continue
                st_d = _verdict_from_parts(nbhd, partition,
                                           control_of_pattern(d))
                if st_d.verdict is Verdict.NEARLY_COMPLETE:
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
