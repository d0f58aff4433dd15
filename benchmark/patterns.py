"""Pattern files as the benchmark sees them: plain data, its own reader and
writer, and the lattice arithmetic the checks need.

Nothing here calls the package's parser or canonicalizer, so a check that
starts from a `Spec` is independent of the code it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Vec = tuple[int, int]

KIND_LETTER = {"pawn": "P", "lance": "L", "knight": "N", "silver": "S",
               "gold": "G", "bishop": "B", "rook": "R", "king": "K"}
LETTER_KIND = {v: k for k, v in KIND_LETTER.items()}

DECOR_NAME = {(0, 1): "n", (1, 1): "ne", (1, 0): "e", (1, -1): "se",
              (0, -1): "s", (-1, -1): "sw", (-1, 0): "w", (-1, 1): "nw"}
DECOR_DIR = {v: k for k, v in DECOR_NAME.items()}


@dataclass(frozen=True)
class Piece:
    cell: Vec
    kind: str          # kind name, e.g. "king" or a custom name
    up: bool
    decoration: Vec | None = None

    def attrs(self):
        return (self.kind, self.up, self.decoration)


@dataclass
class Spec:
    """A periodic pattern: motif pieces, translation vector, and the movesets
    of any custom kinds its file declares (name -> (steps, rides))."""
    pieces: list[Piece]
    t: Vec
    custom: dict[str, tuple[tuple[Vec, ...], tuple[Vec, ...]]] = field(
        default_factory=dict)


# ---------------------------------------------------------------------------
# Lattice arithmetic on Z^2 / <t>

def dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1]


def cross(c: Vec, t: Vec) -> int:
    return c[0] * t[1] - c[1] * t[0]


def rep(c: Vec, t: Vec) -> Vec:
    """The member of c's class whose projection on t lies in [0, t.t)."""
    k = dot(c, t) // dot(t, t)
    return (c[0] - k * t[0], c[1] - k * t[1])


def same_class(a: Vec, b: Vec, t: Vec) -> bool:
    d = (a[0] - b[0], a[1] - b[1])
    return cross(d, t) == 0 and dot(d, t) % dot(t, t) == 0


def sign_fixed(t: Vec) -> Vec:
    return (-t[0], -t[1]) if t[0] < 0 or (t[0] == 0 and t[1] < 0) else t


def normalized(spec: Spec) -> Spec:
    """Cells reduced to class representatives and t made minimal, by direct
    translation tests.  Raises ValueError for two unequal pieces in one
    class (the file is invalid)."""
    t = sign_fixed(spec.t)

    def reduce_all(pieces, t):
        out: dict[Vec, Piece] = {}
        for p in pieces:
            c = rep(p.cell, t)
            q = Piece(c, p.kind, p.up, p.decoration)
            if c in out and out[c].attrs() != q.attrs():
                raise ValueError(f"two pieces in class {c}")
            out[c] = q
        return out

    def is_period(v: Vec) -> bool:
        for c, p in by_class.items():
            q = by_class.get(rep((c[0] + v[0], c[1] + v[1]), t))
            if q is None or q.attrs() != p.attrs():
                return False
        return True

    by_class = reduce_all(spec.pieces, t)
    g = math.gcd(*t)
    for m in range(g, 1, -1):
        if g % m == 0 and is_period((t[0] // m, t[1] // m)):
            t = (t[0] // m, t[1] // m)
            by_class = reduce_all(by_class.values(), t)
            break
    return Spec(sorted(by_class.values(), key=lambda p: p.cell), t,
                dict(spec.custom))


# ---------------------------------------------------------------------------
# File format (see the package README): period, origin, kind headers, grid
# rows top first, decor lines.

def write(spec: Spec) -> str:
    xs = [p.cell[0] for p in spec.pieces]
    ys = [p.cell[1] for p in spec.pieces]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    lines = [f"period: {spec.t[0]} {spec.t[1]}", f"origin: {x0} {y0}"]
    letters = dict(KIND_LETTER)
    for letter, (name, (steps, rides)) in zip("CDEF", spec.custom.items()):
        fmt = lambda vs: ";".join(f"({a},{b})" for a, b in vs)
        lines.append(f"kind: {letter} {name} steps={fmt(steps)} "
                     f"rides={fmt(rides)}")
        letters[name] = letter
    lines.append("grid:")
    at = {p.cell: p for p in spec.pieces}
    for y in range(y1, y0 - 1, -1):
        row = []
        for x in range(x0, x1 + 1):
            p = at.get((x, y))
            row.append(".." if p is None
                       else letters[p.kind] + ("^" if p.up else "v"))
        lines.append(" ".join(row))
    for p in spec.pieces:
        if p.decoration is not None:
            lines.append(f"decor: {p.cell[0]} {p.cell[1]} "
                         f"{DECOR_NAME[p.decoration]}")
    return "\n".join(lines) + "\n"


def _vecs(text: str) -> tuple[Vec, ...]:
    out = []
    for item in filter(None, text.split(";")):
        a, b = item.strip()[1:-1].split(",")
        out.append((int(a), int(b)))
    return tuple(out)


def read(text: str) -> Spec:
    t: Vec | None = None
    origin = (0, 0)
    letters = dict(LETTER_KIND)
    custom = {}
    rows: list[list[str]] = []
    decors = []
    in_grid = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("decor:"):
            x, y, name = line[6:].split()
            decors.append(((int(x), int(y)), DECOR_DIR[name]))
        elif in_grid:
            rows.append(line.split(" "))
        elif line.startswith("period:"):
            a, b = line[7:].split()
            t = (int(a), int(b))
        elif line.startswith("origin:"):
            a, b = line[7:].split()
            origin = (int(a), int(b))
        elif line.startswith("kind:"):
            letter, name, steps, rides = line[5:].split()
            letters[letter] = name
            custom[name] = (_vecs(steps[6:]), _vecs(rides[6:]))
        elif line == "grid:":
            in_grid = True
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if t is None:
        raise ValueError("missing period")
    at: dict[Vec, Piece] = {}
    for i, row in enumerate(rows):
        y = origin[1] + len(rows) - 1 - i
        for j, tok in enumerate(row):
            if tok != "..":
                cell = (origin[0] + j, y)
                at[cell] = Piece(cell, letters[tok[0]], tok[1] == "^")
    for cell, d in decors:
        p = at[cell]
        at[cell] = Piece(cell, p.kind, p.up, d)
    return Spec(list(at.values()), t, custom)
