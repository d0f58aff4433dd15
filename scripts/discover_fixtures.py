#!/usr/bin/env python3
"""Certify the committed crystal fixtures with complete bounded searches.

Each row of the correspondence table has bounds in ``ROW_BOUNDS``.  A row
passes when its committed fixture classifies to the row's group, has the
row's satisfies-vector, and its orbit is among the reports of one complete
``find_crystal`` scan of those bounds for that group and vector.  The scan
reports every such orbit of the space, so the fixture need not be its
first report, and the committed files are certified, never rewritten.

Run from the repository root:

    python scripts/discover_fixtures.py [--verify-only]

With --verify-only the script only checks each fixture's classification
and row, without searching.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shogi_frieze import (  # noqa: E402
    KIND_COLUMNS, FriezeGroup, SearchBounds, classify_frieze, find_crystal,
    form_of, ncc_vector, parse)
from shogi_frieze.search import (  # noqa: E402
    ROW_ORDER, orbit_key, staircase_target)

FIXTURES = Path(__file__).resolve().parent.parent / \
    "src" / "shogi_frieze" / "fixtures" / "crystals"

ROW_BOUNDS = {
    FriezeGroup.P2MM: SearchBounds(2, (2, 2), 2),
    FriezeGroup.P2: SearchBounds(2, (2, 2), 2),
    FriezeGroup.P1M1: SearchBounds(2, (2, 2), 2),
    FriezeGroup.P11M: SearchBounds(8, (3, 4), 3),
    FriezeGroup.P2MG: SearchBounds(2, (2, 2), 2),
    FriezeGroup.P1: SearchBounds(2, (2, 2), 2),
    FriezeGroup.P11G: SearchBounds(4, (4, 3), 4),
}


def row_string(vector: dict) -> str:
    return "".join("o" if vector[k] else "x" for k in KIND_COLUMNS)


def check_row(idx: int, group: FriezeGroup, search: bool) -> bool:
    pattern = parse((FIXTURES / f"{group.label}.pattern").read_text("utf-8"))
    got_group = classify_frieze(pattern)
    vector = {k: s.satisfies for k, s in ncc_vector(form_of(pattern)).items()}
    good = got_group is group and vector == staircase_target(idx)
    line = (f"{group.label}: classify={got_group.label}"
            f" row={row_string(vector)}")
    if search:
        t0 = time.time()
        reports = find_crystal(group, staircase_target(idx), ROW_BOUNDS[group])
        keys = [orbit_key(r.form, True) for r in reports]
        key = orbit_key(form_of(pattern), True)
        found = keys.index(key) + 1 if key in keys else None
        good &= found is not None
        line += (f" reports={len(reports)} fixture={found or '-'}"
                 f" ({time.time() - t0:.1f}s)")
    print(f"{line} {'OK' if good else 'MISMATCH'}")
    return good


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--verify-only", action="store_true")
    args = ap.parse_args()
    ok = True
    for idx, group in enumerate(ROW_ORDER):
        ok &= check_row(idx, group, not args.verify_only)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
