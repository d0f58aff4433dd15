import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest

from shogi_frieze import (KING, STANDARD_KINDS, Moveset, Orientation,
                          PeriodicPattern, PieceKind, PlacedPiece, dual,
                          make_pattern, moveset, parse)
from shogi_frieze.geometry import UNIT_DIRS, reduce_cell
from shogi_frieze.search import (ROW_ORDER, _assignment_indices, _cell_pool,
                                 _form, _period_candidates)

UP, DOWN = Orientation.UP, Orientation.DOWN

# A kind whose moveset is not left-right symmetric: a search with it must
# not prune by the vertical mirror x -> -x.
LEFTY = PieceKind("lefty", moveset(steps=[(1, 0), (1, 1)], rides=[(1, -1)]))

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

FIXTURE_DIR = (Path(__file__).resolve().parent.parent
               / "src" / "shogi_frieze" / "fixtures" / "crystals")


def piece(cell, orientation=UP, kind=KING, decoration=None):
    return PlacedPiece(cell, kind, orientation, decoration)


def random_pattern(rng: random.Random, *, max_pieces=6, span=4, tmax=5,
                   kinds=STANDARD_KINDS, orientations=(UP, DOWN), decor=0.0):
    """A random canonical pattern; each piece carries a random decoration
    with probability ``decor`` (with 0, no draw is spent on it)."""
    while True:
        t = (rng.randint(-tmax, tmax), rng.randint(-tmax, tmax))
        if t != (0, 0):
            break
    n = rng.randint(1, max_pieces)
    by_class = {}
    for _ in range(n):
        c = reduce_cell((rng.randint(-span, span), rng.randint(-span, span)), t)
        by_class[c] = PlacedPiece(c, rng.choice(kinds),
                                  rng.choice(orientations))
        if decor and rng.random() < decor:
            by_class[c] = replace(by_class[c],
                                  decoration=rng.choice(UNIT_DIRS))
    return make_pattern(by_class.values(), t)


def has_horizontal_mirror_symmetry(m: Moveset) -> bool:
    """True iff negating dy everywhere reproduces the same moveset."""
    flip = lambda s: frozenset((dx, -dy) for dx, dy in s)
    return flip(m.steps) == m.steps and flip(m.rides) == m.rides


def rotated_dual(p):
    """The dual of ``p`` whose kinds carry 180-degree rotated movesets:
    the same pieces seen from the other side, so the same control."""
    d = dual(p)
    return PeriodicPattern(tuple(
        replace(x, kind=PieceKind(x.kind.name, x.kind.moveset.rotated()))
        for x in d.pieces), d.t)


@pytest.fixture(scope="session")
def crystal_fixtures():
    out = {}
    for group in ROW_ORDER:
        text = (FIXTURE_DIR / f"{group.label}.pattern").read_text("utf-8")
        out[group] = parse(text)
    return out


def cell_sets(bounds, t):
    """Each combination of pool cells that lie in distinct classes mod t,
    reduced mod t, in enumeration order: the naive reference of the scan's
    cell sets."""
    pool = [reduce_cell(c, t) for c in _cell_pool(bounds, t)]
    for n in range(1, bounds.max_motif_pieces + 1):
        for cells in itertools.combinations(pool, n):
            if len(set(cells)) == n:
                yield list(cells)


def enumerate_forms(bounds):
    """Every form of the bounded space, unpruned: the naive reference of
    the scan."""
    for t in _period_candidates(bounds):
        for cells in cell_sets(bounds, t):
            for a in _assignment_indices(bounds, len(cells)):
                yield _form(bounds, t, cells, a)
