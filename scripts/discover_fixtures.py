#!/usr/bin/env python3
"""Discover and re-verify the committed crystal fixtures.

Five of the seven rows fall out of the generic bounded search quickly once
the right orientations are allowed (the p2 row needs a diagonal
translation vector, which the search enumerates).  The p11m row sits in a
larger space, so it is hunted through mirror-closed candidates only: each
candidate is the p11m recipe closure of a basic motif above the axis, and
the classifier rejects the ones with accidental extra symmetry.

Run from the repository root:

    python scripts/discover_fixtures.py [--verify-only]

With --verify-only the script just re-verifies the committed files
(classification plus table row) without searching.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shogi_frieze import (  # noqa: E402
    KIND_COLUMNS, KING, FriezeGroup, Orientation, PatternError,
    PeriodicPattern, PlacedPiece, SearchBounds, classify_frieze, find_crystal,
    form_of, generate_from_recipe, ncc_vector, parse, serialize)
from shogi_frieze.search import ROW_ORDER, staircase_target  # noqa: E402

UP, DOWN = Orientation.UP, Orientation.DOWN

DEFAULT_OUT = Path(__file__).resolve().parent.parent / \
    "src" / "shogi_frieze" / "fixtures" / "crystals"


def row_string(pattern: PeriodicPattern) -> str:
    vec = ncc_vector(form_of(pattern))
    return "".join("o" if vec[k].satisfies else "x" for k in KIND_COLUMNS)


def want_string(idx: int) -> str:
    return "x" * (idx + 1) + "o" * (7 - idx)


def hunt_generic(group: FriezeGroup, idx: int,
                 bounds: SearchBounds) -> PeriodicPattern | None:
    reports = find_crystal(group, staircase_target(idx), bounds, limit=1)
    return reports[0].pattern if reports else None


def hunt_p11m(idx: int, max_basic: int = 4, max_T: int = 4,
              rows: int = 3) -> PeriodicPattern | None:
    """Enumerate candidates closed under reflect_h(y=-1/2) only."""
    want = want_string(idx)
    seen: set[PeriodicPattern] = set()
    for n in range(1, max_basic + 1):
        for T in range(2, max_T + 1):
            pool = [(x, y) for x in range(T) for y in range(rows)]
            for cells in itertools.combinations(pool, n):
                for orients in itertools.product((UP, DOWN), repeat=n):
                    basic = [PlacedPiece(c, KING, o)
                             for c, o in zip(cells, orients)]
                    try:
                        p = generate_from_recipe(basic, FriezeGroup.P11M,
                                                 (T, 0), axis_y=-0.5)
                    except PatternError:
                        continue
                    if p in seen:
                        continue
                    seen.add(p)
                    if classify_frieze(p) is not FriezeGroup.P11M:
                        continue
                    if row_string(p) == want:
                        return p
    return None


HUNTS = {
    FriezeGroup.P2MM: lambda i: hunt_generic(
        FriezeGroup.P2MM, i, SearchBounds(2, (2, 2), 2)),
    FriezeGroup.P2: lambda i: hunt_generic(
        FriezeGroup.P2, i, SearchBounds(2, (2, 2), 2)),
    FriezeGroup.P1M1: lambda i: hunt_generic(
        FriezeGroup.P1M1, i, SearchBounds(2, (2, 2), 2)),
    FriezeGroup.P11M: hunt_p11m,
    FriezeGroup.P2MG: lambda i: hunt_generic(
        FriezeGroup.P2MG, i, SearchBounds(2, (2, 2), 2)),
    FriezeGroup.P1: lambda i: hunt_generic(
        FriezeGroup.P1, i,
        SearchBounds(4, (4, 3), 4, orientations=frozenset((UP,)))),
    FriezeGroup.P11G: lambda i: hunt_generic(
        FriezeGroup.P11G, i, SearchBounds(4, (4, 3), 4)),
}


def verify(outdir: Path) -> bool:
    ok = True
    for idx, group in enumerate(ROW_ORDER):
        path = outdir / f"{group.label}.pattern"
        p = parse(path.read_text("utf-8"))
        got_group = classify_frieze(p)
        got_row = row_string(p)
        good = got_group is group and got_row == want_string(idx)
        print(f"{group.label}: classify={got_group.label} row={got_row} "
              f"{'OK' if good else 'MISMATCH'}")
        ok &= good
    return ok


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    ap.add_argument("--verify-only", action="store_true")
    args = ap.parse_args()

    if args.verify_only:
        return 0 if verify(args.out) else 1

    args.out.mkdir(parents=True, exist_ok=True)
    all_found = True
    for idx, group in enumerate(ROW_ORDER):
        t0 = time.time()
        p = HUNTS[group](idx)
        if p is None:
            print(f"{group.label}: NOT FOUND")
            all_found = False
            continue
        print(f"{group.label}: row={row_string(p)} pieces={len(p.pieces)} "
              f"t={p.t} ({time.time() - t0:.1f}s)")
        (args.out / f"{group.label}.pattern").write_text(serialize(p),
                                                         encoding="utf-8")
    if not all_found:
        return 1
    return 0 if verify(args.out) else 1


if __name__ == "__main__":
    sys.exit(main())
