"""Seeded inputs of each workload, written as pattern files.

The same seed gives the same files.  The make-up of each set is fixed (how
many files, which periods and piece counts, which kinds lead); the seed
picks cells, orientations, mixed-in kinds, decorations and origins.
"""

from __future__ import annotations

import random
from pathlib import Path

from patterns import DECOR_NAME, Piece, Spec, Vec, same_class, write

KINDS = ("pawn", "lance", "knight", "silver", "gold", "bishop", "rook",
         "king")

# cli-analyze: (translation vector, target piece count); each row three times.
CLI_SHAPES: tuple[tuple[Vec, int], ...] = (
    ((1, 0), 2), ((2, 0), 3), ((3, 0), 4), ((4, 0), 6),
    ((5, 0), 5), ((6, 0), 8), ((6, 0), 3), ((4, 0), 2),
    ((1, 1), 2), ((1, -1), 3), ((2, 1), 4), ((2, -1), 5),
    ((1, 2), 3), ((2, 2), 6), ((1, -2), 3), ((3, 1), 4),
)
CLI_BOX = (6, 3)

# Two files that give one custom kind name two movesets.  The second of each
# pair is rejected while kinds live in a process-global registry.
CUSTOM_PAIRS = (
    ("fairy-a", ([(0, 1), (0, -1)], []), ([(1, 0), (-1, 0)], [])),
    ("fairy-b", ([], [(1, 1)]), ([], [(1, -1)])),
)
CUSTOM_REFUSED = {f"{name}_2" for name, _, _ in CUSTOM_PAIRS}

# Two files with a vertical translation and mirrors.  `classify` misses the
# mirrors, as it tries mirrors and glides only for a horizontal translation;
# seeded files have no vertical translation, so that this fault fails the
# same operations on every seed.
VERTICAL = {
    "vertical_1": Spec([Piece((0, 0), "king", True)], (0, 1)),
    "vertical_2": Spec([Piece((0, 0), "king", True),
                        Piece((0, 1), "king", False)], (0, 2)),
}

# The small search of cli-analyze: group, target, and the bounds (max
# pieces, box, max period) over both orientations.
SEARCH_GROUP = "p2mm"
SEARCH_TARGET = {k: k != "knight" for k in KINDS}
SEARCH_SPACE = (2, (2, 2), 2)
SEARCH_ARGS = ("--group", SEARCH_GROUP, "--target", "x0000000",
               "--max-pieces", str(SEARCH_SPACE[0]),
               "--max-period", str(SEARCH_SPACE[2]),
               "--box", "{}x{}".format(*SEARCH_SPACE[1]),
               "--both-orientations")

# long-period: single pieces on horizontal periods, a rook on a very long
# horizontal period, and a two-piece motif on a diagonal of large gcd.
SINGLE_PERIODS = (250, 500, 1000)
ROOK_PERIOD = 100_000
DIAGONAL_GCD = 600
SMALL_PERIOD = 3


def _motif(rng: random.Random, t: Vec, n: int) -> list[Vec]:
    w, h = CLI_BOX
    if t[1] == 0:
        w = min(w, t[0])
    pool = [(x, y) for x in range(w) for y in range(h)]
    rng.shuffle(pool)
    cells: list[Vec] = []
    for c in pool:
        if len(cells) == n:
            break
        if not any(same_class(c, d, t) for d in cells):
            cells.append(c)
    return sorted(cells)


def cli_specs(seed: int) -> list[tuple[str, Spec]]:
    rng = random.Random(f"cli-analyze:{seed}")
    out = []
    for i in range(3 * len(CLI_SHAPES)):
        t, n = CLI_SHAPES[i % len(CLI_SHAPES)]
        lead = KINDS[i % len(KINDS)]
        other = rng.choice(KINDS) if rng.random() < 0.3 else lead
        decorate = rng.random() < 0.25
        dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
        pieces = []
        for j, (x, y) in enumerate(_motif(rng, t, n)):
            deco = (rng.choice(list(DECOR_NAME))
                    if decorate and rng.random() < 0.5 else None)
            pieces.append(Piece((x + dx, y + dy),
                                lead if j % 2 == 0 else other,
                                rng.random() < 0.5, deco))
        out.append((f"gen_{i:02d}", Spec(pieces, t)))
    return out


def custom_pair_specs() -> list[tuple[str, Spec]]:
    out = []
    for name, first, second in CUSTOM_PAIRS:
        for tag, moves in (("1", first), ("2", second)):
            out.append((f"{name}_{tag}",
                        Spec([Piece((0, 0), name, True),
                              Piece((1, 1), "king", False)], (3, 0),
                             {name: moves})))
    return out


def long_specs(seed: int) -> dict[str, Spec]:
    """Large-period patterns plus, for each, the same motif at a small
    period (names ending in `_small`)."""
    rng = random.Random(f"long-period:{seed}")
    kind = rng.choice([k for k in KINDS if k != "rook"])
    up = rng.random() < 0.5
    # Rows stay in 0..50: CPython shares the int objects of small
    # nonnegative numbers, so a negative row gives each class tuple of a long
    # ray its own int and moves peak memory by about 10 %.
    x0, y0 = rng.randint(-50, 50), rng.randint(0, 50)
    rook_up = rng.random() < 0.5
    sign = rng.choice((1, -1))
    diag_up = rng.random() < 0.5

    def single(k, u, T):
        return Spec([Piece((x0, y0), k, u)], (T, 0))

    def diagonal(g):
        return Spec([Piece((x0, y0), "bishop", True),
                     Piece((x0 + 1, y0 + sign), "king", diag_up)],
                    (g, sign * g))

    out = {f"single_{T}": single(kind, up, T) for T in SINGLE_PERIODS}
    out["single_small"] = single(kind, up, SMALL_PERIOD)
    out["rook"] = single("rook", rook_up, ROOK_PERIOD)
    out["rook_small"] = single("rook", rook_up, SMALL_PERIOD)
    out["diagonal"] = diagonal(DIAGONAL_GCD)
    out["diagonal_small"] = diagonal(SMALL_PERIOD)
    return out


def write_inputs(workload: str, seed: int, root: Path) -> None:
    """Write the workload's pattern files under root."""
    root.mkdir(parents=True, exist_ok=True)
    if workload == "cli-analyze":
        for name, spec in (cli_specs(seed) + custom_pair_specs()
                           + list(VERTICAL.items())):
            (root / f"{name}.pattern").write_text(write(spec), "utf-8")
    elif workload == "long-period":
        for name, spec in long_specs(seed).items():
            (root / f"{name}.pattern").write_text(write(spec), "utf-8")
