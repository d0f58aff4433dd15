"""Correctness checks computed apart from the periodic engine.

Verdicts, control sets and table cells come from the finite-board oracle
(`brute_control`, `brute_neighborhood`, `brute_partition`) with the
complete / nearly-complete / fails rule written out below, and with the
standard movesets written out here from the rules of shogi.  Frieze groups
come from a direct isometry test on a board built with `oracle.replicate`.
Each check raises `CheckError` naming what disagreed.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET

import shogi_frieze as sf
from shogi_frieze import oracle

from patterns import (Piece, Spec, Vec, cross, dot, normalized, rep,
                      sign_fixed)

UP_MOVES = {  # name -> (steps, rides), in the Up frame
    "pawn": ([(0, 1)], []),
    "lance": ([], [(0, 1)]),
    "knight": ([(-1, 2), (1, 2)], []),
    "silver": ([(0, 1), (1, 1), (-1, 1), (1, -1), (-1, -1)], []),
    "gold": ([(0, 1), (1, 1), (-1, 1), (1, 0), (-1, 0), (0, -1)], []),
    "bishop": ([], [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
    "rook": ([], [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    "king": ([(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)
              if (x, y) != (0, 0)], []),
}

# Substitutions of the `fragility` command, written out independently.
SUBSTITUTIONS = {
    "lance=reverse-chariot": ("lance", ([], [(0, 1), (0, -1)])),
    "silver=sideways-silver": (
        "silver", (UP_MOVES["silver"][0] + [(1, 0), (-1, 0)], [])),
    "knight=chess-knight": ("knight", ([(1, 2), (-1, 2), (1, -2), (-1, -2),
                                        (2, 1), (-2, 1), (2, -1), (-2, -1)],
                                       [])),
}

# The paper's table: rows in this order, columns in this order; row i fails
# for exactly the first i+1 columns.
ROWS = ("p2mm", "p2", "p1m1", "p11m", "p2mg", "p1", "p11g")
COLUMNS = ("knight", "pawn", "lance", "bishop", "silver", "gold", "rook",
           "king")

WORD = {"complete": "complete", "nearly": "nearly", "fails": "fail"}


class CheckError(AssertionError):
    pass


class KnownFault(Exception):
    """An output that is wrong, or a refusal, in exactly the way a named
    fault of the program predicts.  The operation counts as failed but does
    not make the run incorrect."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _kind(name: str) -> sf.PieceKind:
    return sf.PieceKind(name)


def movesets(spec: Spec, substitute=None) -> dict:
    """Oracle overrides covering every kind of the spec."""
    table = dict(UP_MOVES)
    table.update(spec.custom)
    if substitute:
        name, moves = substitute
        table[name] = moves
    return {_kind(n): sf.moveset(steps, rides)
            for n, (steps, rides) in table.items()}


def oracle_pattern(spec: Spec, kind: str | None = None) -> sf.PeriodicPattern:
    """The spec (already normalized) as a package pattern, optionally with
    every piece given one kind.  Built field by field: no canonicalize."""
    pieces = tuple(
        sf.PlacedPiece(p.cell, _kind(kind or p.kind),
                       sf.Orientation.UP if p.up else sf.Orientation.DOWN,
                       p.decoration) for p in spec.pieces)
    return sf.PeriodicPattern(pieces, spec.t)


# ---------------------------------------------------------------------------
# Verdicts

class BruteForm:
    """Oracle geometry of one normalized spec, shared by all its kinds."""

    def __init__(self, spec: Spec):
        self.spec = spec
        base = oracle_pattern(spec)
        self.copies = oracle.sufficient_copies(base)
        board = oracle.replicate(base, self.copies)
        self.window = oracle.window_cells(board)
        self.nbhd = oracle.brute_neighborhood(board) & self.window
        self.regions = {c: r for c, r in oracle.brute_partition(board).items()
                        if c in self.window}

    def board(self, kind: str | None = None):
        return oracle.replicate(oracle_pattern(self.spec, kind), self.copies)

    def control(self, kind=None, substitute=None) -> set[Vec]:
        return oracle.brute_control(self.board(kind),
                                    movesets(self.spec, substitute))

    def status(self, kind=None, substitute=None):
        """(verdict, region name or None, witness or None) by the rule:
        complete when every neighborhood cell is controlled; nearly complete
        when some cell is controlled and the uncontrolled cells are exactly
        one nonempty region (inside, base or outside); fails otherwise,
        witnessed by the least uncontrolled class representative."""
        ctrl = self.control(kind, substitute)
        unc = self.nbhd - ctrl
        if not unc:
            return ("complete", None, None)
        if len(unc) < len(self.nbhd):
            for region in sf.RegionClass:
                cells = {c for c, r in self.regions.items() if r is region}
                if cells and cells == unc:
                    return ("nearly", region.value, None)
        return ("fails", None, min(unc))


def engine_status(st) -> tuple:
    region = st.uncontrolled_class.value if st.uncontrolled_class else None
    verdict = {"complete": "complete", "nearly_complete": "nearly",
               "fails": "fails"}[st.verdict.value]
    return (verdict, region, st.witness)


_REGION_WORD = {"inside": "Inside", "base": "Base", "outside": "Outside"}


def verdict_line(status) -> str:
    verdict, region, witness = status
    if verdict == "complete":
        return "verdict=Complete"
    if verdict == "nearly":
        return f"verdict=NearlyComplete:{_REGION_WORD[region]}"
    return f"verdict=Fails@({witness[0]},{witness[1]})"


# ---------------------------------------------------------------------------
# Frieze groups by direct isometry tests
#
# An isometry that maps up/down pieces to up/down pieces has a diagonal
# linear part S = diag(sx, sy), sx, sy = +-1 (a reflection about a diagonal
# would turn pieces sideways).  It maps c to (sx*x + ox, sy*y + oy) and turns
# a piece over when sy = -1.  It maps a frieze with translation t onto a
# frieze only if S t = +-t: a horizontal or a vertical t admits both
# reflections, any other t only the 180-degree rotation.

SIGNS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def _linear(S, v: Vec) -> Vec:
    return (S[0] * v[0], S[1] * v[1])


def role(S, o: Vec, t: Vec) -> str | None:
    """What the symmetry c -> S c + o is in the frieze: 'translation'
    (nontrivial), 'r' (rotation), 'h' (mirror whose axis runs along t), 'g'
    (glide along t), 'v' (mirror across t); None for a multiple of t."""
    tt = dot(t, t)
    along = dot(o, t)
    if S == (1, 1):
        trivial = cross(o, t) == 0 and along % tt == 0
        return None if trivial else "translation"
    if S == (-1, -1):
        return "r"
    if _linear(S, t) != t:
        return "v"
    # Applied twice it translates by S o + o = (2 along / tt) t.
    return "h" if along % tt == 0 else "g"


class IsometryBoard:
    """A replicated board of a normalized spec and a test of whether an
    isometry maps every motif piece onto a piece of the same kind, the
    right orientation and the mapped decoration.  Motif cells are class
    representatives and candidates map piece 0 at most three periods away,
    so every image lies inside the nine-copy board."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.occ = oracle.replicate(oracle_pattern(spec), 9).occupancy

    def holds(self, S, o: Vec) -> bool:
        for p in self.spec.pieces:
            q = self.occ.get((S[0] * p.cell[0] + o[0], S[1] * p.cell[1] + o[1]))
            if q is None or q.kind.name != p.kind:
                return False
            if (q.orientation is sf.Orientation.UP) != (p.up == (S[1] > 0)):
                return False
            want = _linear(S, p.decoration) if p.decoration else None
            if q.decoration != want:
                return False
        return True

    def symmetries(self, reach: int = 0):
        """Every symmetry (S, o) with S t = +-t that maps piece 0 onto a
        motif piece moved by at most `reach` periods.  With reach 0 every
        kind of symmetry the pattern has is among them."""
        s = self.spec
        t = s.t
        p0 = s.pieces[0].cell
        for S in SIGNS:
            if _linear(S, t) not in (t, (-t[0], -t[1])):
                continue
            for p in s.pieces:
                for k in range(-reach, reach + 1):
                    o = (p.cell[0] + k * t[0] - S[0] * p0[0],
                         p.cell[1] + k * t[1] - S[1] * p0[1])
                    if self.holds(S, o):
                        yield S, o

    def flags(self) -> dict[str, bool]:
        """Which symmetry types the pattern has."""
        roles = {role(S, o, self.spec.t) for S, o in self.symmetries()}
        return {k: k in roles for k in ("translation", "r", "h", "v", "g")}


def group_of(flags: dict[str, bool]) -> str:
    """The frieze group of a set of symmetry types."""
    h, v, g, r = flags["h"], flags["v"], flags["g"], flags["r"]
    if h and v:
        return "p2mm"
    if h:
        return "p11m"
    if v:
        return "p2mg" if r else "p1m1"
    if r:
        return "p2"
    return "p11g" if g else "p1"


def brute_group(spec: Spec) -> str:
    flags = IsometryBoard(spec).flags()
    expect(not flags["translation"], "motif period is not minimal")
    return group_of(flags)


def witnesses(board: IsometryBoard) -> set[tuple]:
    """Every symmetry in the ranges `classify` lists, as the line it would
    be listed as (type of axis on the board, doubled parameters): the mirror
    or glide whose axis runs along t, with shift 0 or half of t, and mirrors
    across t and rotation centers whose projection on t lies in [0, 2 t.t),
    one period of them (they repeat every t/2)."""
    t = board.spec.t
    tt = dot(t, t)
    out = set()
    for S, o in board.symmetries(reach=3):
        kind = role(S, o, t)
        along = dot(o, t)
        if kind in ("r", "v"):
            listed = 0 <= along < 2 * tt
        else:
            listed = (kind == "h" and along == 0
                      or kind == "g" and 2 * along == tt)
        if not listed:
            continue
        if S == (-1, -1):
            out.add(("r", o))
        elif S == (1, -1):  # axis y = o[1] / 2
            out.add(("g", (o[1], o[0])) if kind == "g" else ("h", (o[1],)))
        else:  # axis x = o[0] / 2
            out.add(("gx", o) if kind == "g" else ("v", (o[0],)))
    return out


def check_classify(spec: Spec, out: str) -> None:
    """`classify` output: the group line, and witness lines that are
    exactly the symmetries in the listed ranges."""
    lines = out.splitlines()
    board = IsometryBoard(spec)
    flags = board.flags()
    expect(not flags["translation"], "motif period is not minimal")
    want = group_of(flags)
    if lines[0] != f"group={want}":
        # The package tries mirrors and glides only for a horizontal t.
        blind = group_of(dict(flags, h=False, v=False, g=False))
        if spec.t[0] == 0 and lines[0] == f"group={blind}":
            raise KnownFault(f"vertical translation {spec.t}: classify says "
                             f"{blind}, its mirrors make it {want}")
        raise CheckError(f"classify says {lines[0]}, brute force {want}")
    listed = set()
    for line in lines[1:]:
        kind, rest = line.split(" ", 1)
        vals = dict(item.split("=") for item in rest.split(" "))
        if kind == "r":
            cx, cy = vals["center"][1:-1].split(",")
            listed.add(("r", (round(2 * float(cx)), round(2 * float(cy)))))
        elif kind == "v":
            listed.add(("v", (round(2 * float(vals["x"])),)))
        elif kind == "g":
            listed.add(("g", (round(2 * float(vals["y"])),
                              int(vals["shift"]))))
        else:
            listed.add(("h", (round(2 * float(vals["y"])),)))
    want = witnesses(board)
    expect(listed == want, f"witnesses differ on {sorted(listed ^ want)[:3]}")


# ---------------------------------------------------------------------------
# Per-file CLI outputs

def check_ncc(form: BruteForm, out: str) -> None:
    want = verdict_line(form.status())
    expect(out.splitlines() == [want], f"ncc says {out.strip()}, oracle {want}")


def on_line(c: Vec, anchor: Vec, d: Vec, t: Vec) -> bool:
    """Is c in the class of anchor + k*d for some k >= 1?"""
    qd = cross(d, t)
    delta = cross(c, t) - cross(anchor, t)
    if qd == 0:
        return delta == 0
    if delta % qd or delta // qd < 1:
        return False
    k = delta // qd
    return dot((c[0] - anchor[0] - k * d[0], c[1] - anchor[1] - k * d[1]),
               t) % dot(t, t) == 0


def _vec(text: str) -> Vec:
    a, b = text.strip("()").split(",")
    return (int(a), int(b))


def check_control(form: BruteForm, out: str) -> None:
    """Listed classes plus free lines, read in the central window, equal the
    oracle's control there; each free line's ray really runs off the
    board unblocked."""
    spec = form.spec
    classes, lines = set(), []
    for line in out.splitlines():
        word, rest = line.split(" ", 1)
        if word == "class":
            classes.add(_vec(rest))
        else:
            a, d = rest.split("+")
            lines.append((_vec(a), _vec(d)))
    expect(all(rep(c, spec.t) == c for c in classes),
           "control lists a non-canonical class")
    listed = {c for c in form.window
              if c in classes or any(on_line(c, a, d, spec.t)
                                     for a, d in lines)}
    truth = form.control() & form.window
    expect(listed == truth, f"control differs from the oracle on "
                            f"{sorted(listed ^ truth)[:4]}")
    board = form.board()
    for a, d in lines:
        x, y = a[0] + d[0], a[1] + d[1]
        while board.in_bounds(x, y):
            expect((x, y) not in board.occupancy,
                   f"free line {a}+{d} is blocked at {(x, y)}")
            x, y = x + d[0], y + d[1]


def check_render_svg(form: BruteForm, out: str) -> None:
    """The svg of `--layers pieces,partition,control` over one period: one
    piece glyph per occupied view cell and a control dot exactly on the
    cells the oracle says are controlled."""
    spec = form.spec
    root = ET.fromstring(out)
    ns = "{http://www.w3.org/2000/svg}"
    xs = [p.cell[0] for p in spec.pieces]
    ys = [p.cell[1] for p in spec.pieces]
    x0, x1, y0, y1 = min(xs) - 2, max(xs) + 2, min(ys) - 2, max(ys) + 2
    board = form.board()
    ctrl = form.control()
    view = [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]
    dots = {(int(float(e.get("cx"))) // 32 + x0,
             y1 - int(float(e.get("cy"))) // 32)
            for e in root.iter(ns + "circle")}
    want = {c for c in view if c in ctrl}
    expect(dots == want, f"svg control dots differ on "
                         f"{sorted(dots ^ want)[:4]}")
    glyphs = len(list(root.iter(ns + "path")))
    expect(glyphs == sum(c in board.occupancy for c in view),
           "svg piece count differs from the board")


def walk_control(spec):
    """Control of a normalized spec by walking each step and ride on the
    plane: allies block, enemies are captured, and a ride is free once it
    drifts across the occupied band or returns to a class it passed."""
    t = spec.t
    occ = {p.cell: p for p in spec.pieces}
    qs = [cross(c, t) for c in occ]
    qlo, qhi = min(qs), max(qs)
    classes, free = set(), set()
    for p in spec.pieces:
        steps, rides = UP_MOVES.get(p.kind) or spec.custom[p.kind]
        sign = 1 if p.up else -1
        for dx, dy in steps:
            c = rep((p.cell[0] + sign * dx, p.cell[1] + sign * dy), t)
            q = occ.get(c)
            if q is None or q.up != p.up:
                classes.add(c)
        for dx, dy in rides:
            d = (sign * dx, sign * dy)
            qd = cross(d, t)
            x, y = p.cell
            seen = set()
            while True:
                x, y = x + d[0], y + d[1]
                c = rep((x, y), t)
                q = occ.get(c)
                if q is not None:
                    if q.up != p.up:
                        classes.add(c)
                    break
                qc = cross(c, t)
                if (qd > 0 and qc > qhi) or (qd < 0 and qc < qlo) \
                        or c in seen:
                    free.add((p.cell, d))
                    break
                seen.add(c)
                classes.add(c)
    return classes, free


# ---------------------------------------------------------------------------
# Whole-table commands

def fixture_groups(fixtures: list[Spec]) -> dict[str, Spec]:
    by_group = {brute_group(s): s for s in fixtures}
    expect(sorted(by_group) == sorted(ROWS),
           f"fixtures cover groups {sorted(by_group)}")
    return by_group


def check_table(fixtures: dict[str, BruteForm], out: str) -> None:
    """`table`: the staircase as the paper states it, and every cell the
    oracle's verdict for that crystal filled with that kind."""
    lines = out.splitlines()
    expect(lines[0].split("\t") == ["group", *COLUMNS], "table header")
    expect(len(lines) == 1 + len(ROWS), "table row count")
    for i, (group, line) in enumerate(zip(ROWS, lines[1:])):
        cells = line.split("\t")
        expect(cells[0] == group, f"table row {i} is {cells[0]}")
        fails = [c == "fail" for c in cells[1:]]
        expect(fails == [j <= i for j in range(len(COLUMNS))],
               f"row {group} is not the staircase")
        for kind, word in zip(COLUMNS, cells[1:]):
            want = WORD[fixtures[group].status(kind)[0]]
            expect(word == want, f"table {group}/{kind}: {word}, oracle {want}")


def check_fragility(fixtures: dict[str, BruteForm], name: str,
                    out: str) -> None:
    """`fragility --substitute NAME`: exactly the cells whose satisfied bit
    the oracle flips when given the substituted moveset."""
    subst = SUBSTITUTIONS[name]
    want = []
    for group in ROWS:
        for kind in COLUMNS:
            base = fixtures[group].status(kind)[0] != "fails"
            after = fixtures[group].status(kind, subst)[0] != "fails"
            if base != after:
                want.append(f"{group}\t{kind}")
    expect(out.splitlines() == want + [f"changed={len(want)}"],
           f"fragility {name} differs from the oracle")


# ---------------------------------------------------------------------------
# Search reports

def spec_of(pattern) -> Spec:
    """A package pattern (a search result) read back as plain data."""
    return Spec([Piece(p.cell, p.kind.name, p.orientation is sf.Orientation.UP,
                       p.decoration) for p in pattern.pieces], pattern.t)


def orbit(spec: Spec):
    """Least re-anchored motif over translations and the vertical mirror."""
    def key(pieces, t):
        best = None
        for anchor in pieces:
            moved = sorted((rep((p.cell[0] - anchor.cell[0],
                                 p.cell[1] - anchor.cell[1]), t),
                            p.up, p.decoration or (0, 0)) for p in pieces)
            best = moved if best is None or moved < best else best
        return (t, tuple(best))
    mirrored = normalized(Spec(
        [Piece((-p.cell[0], p.cell[1]), p.kind, p.up,
               (-p.decoration[0], p.decoration[1]) if p.decoration else None)
         for p in spec.pieces], (-spec.t[0], spec.t[1])))
    return min(key(spec.pieces, spec.t), key(mirrored.pieces, mirrored.t))


def check_reports(group: str, target: dict[str, bool],
                  reports: list[Spec]) -> None:
    """Every reported pattern has the group and the per-kind satisfied
    vector under the oracle, and no two reports share an orbit."""
    seen = set()
    for found in reports:
        spec = normalized(found)
        expect(spec.t == found.t, "report period is not minimal")
        expect(brute_group(spec) == group, f"report is not {group}")
        form = BruteForm(spec)
        for kind, want in target.items():
            got = form.status(kind)[0] != "fails"
            expect(got == want, f"report {kind} satisfied={got}")
        key = orbit(spec)
        expect(key not in seen, "two reports share an orbit")
        seen.add(key)


def brute_search(group: str, target: dict[str, bool], max_pieces: int,
                 box: tuple[int, int], max_period: int,
                 orientations=(True, False)) -> set:
    """Orbits of every pattern in a bounded space whose group and per-kind
    verdicts are the target's, found by listing the space directly: every
    translation t (up to sign) whose components are at most max_period,
    every set of 1 to max_pieces cells of the box in distinct classes, every
    orientation.  A pattern whose period is shorter than t is left to the
    shorter t."""
    cells = [(x, y) for x in range(box[0]) for y in range(box[1])]
    ts = {sign_fixed((a, b)) for a in range(-max_period, max_period + 1)
          for b in range(-max_period, max_period + 1) if a or b}
    seen, found = set(), set()
    for t in sorted(ts):
        for n in range(1, max_pieces + 1):
            for motif in itertools.combinations(cells, n):
                if len({rep(c, t) for c in motif}) < n:
                    continue
                for ups in itertools.product(orientations, repeat=n):
                    spec = normalized(Spec([Piece(c, "king", u)
                                            for c, u in zip(motif, ups)], t))
                    key = orbit(spec)
                    if spec.t != t or key in seen:
                        continue
                    seen.add(key)
                    if brute_group(spec) != group:
                        continue
                    form = BruteForm(spec)
                    if all((form.status(k)[0] != "fails") == want
                           for k, want in target.items()):
                        found.add(key)
    return found


def check_complete(reports: list[Spec], wanted: set) -> None:
    """The reports are exactly one per orbit of `wanted` (from
    `brute_search` over the same bounds).  Orbits missed only because their
    translation is vertical are the known fault of a search that enumerates
    mirror groups on horizontal translations only."""
    got = {orbit(normalized(s)) for s in reports}
    missing, extra = wanted - got, got - wanted
    if missing and not extra and all(t[0] == 0 for t, _ in missing):
        raise KnownFault(f"search misses {len(missing)} crystals whose "
                         f"translation is vertical")
    expect(not missing and not extra,
           f"search misses {len(missing)} orbits and reports {len(extra)} "
           f"it should not")
