"""Deterministic ascii and SVG rendering of patterns and their analysis.

Ascii legend: occupied cells show the kind letter plus ``^``/``v``.  Empty
cells show two characters: ``*`` in the first position when the control
layer marks the cell, and in the second position the region letter
``i``/``b``/``o`` (partition layer) or ``n`` (neighborhood layer), with
``.`` as filler.  Rows are emitted top to bottom.

SVG: one cell is 32 units, the y axis is flipped at emission time, and
fills, grid and control marks are emitted row by row from the top, then
the pieces in sorted cell order, so output bytes are stable.

Both formats share one row-major pass over the view box (``_rows``) that
reduces each cell once and decides each class's look once; svg writes each
row's grid in one join and each fill and mark from per-row text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from .control import (RegionClass, control_of_pattern, neighborhood,
                      partition_neighborhood)
from .geometry import Vec
from .pattern import PatternError, PeriodicPattern, PlacedPiece, canonicalize
from .pieces import KIND_LETTERS, Orientation

LAYERS = ("pieces", "neighborhood", "partition", "control")

CELL = 32

# The most cells a picture may have (a 500 x 500 box).  A long t or many
# periods can ask for a box far larger than the motif; such a picture is
# refused rather than drawn.
MAX_CELLS = 250_000

_REGION_LETTER = {RegionClass.INSIDE: "i", RegionClass.BASE: "b",
                  RegionClass.OUTSIDE: "o"}
_REGION_FILL = {RegionClass.INSIDE: "#b8cff0", RegionClass.BASE: "#d2b48c",
                RegionClass.OUTSIDE: "#cfe8c9"}


@dataclass(frozen=True)
class RenderSpec:
    format: str = "ascii"
    layers: tuple[str, ...] = ("pieces",)
    periods: int = 1

    def __post_init__(self) -> None:
        if self.format not in ("ascii", "svg"):
            raise PatternError(f"unknown format {self.format!r}")
        for layer in self.layers:
            if layer not in LAYERS:
                raise PatternError(f"unknown layer {layer!r}")
        if self.periods < 1:
            raise PatternError("periods must be at least 1")


def _view(p: PeriodicPattern, spec: RenderSpec) -> tuple[int, int, int, int]:
    """View box ``(x0, x1, y0, y1)`` covering `periods` copies (padded by
    2).  It is computed from the pieces and the last copy's shift, so its
    cost does not grow with `periods`; a box of more than ``MAX_CELLS``
    cells raises ``PatternError``."""
    (tx, ty), last = p.t, spec.periods - 1
    xs = [piece.cell[0] for piece in p.pieces]
    ys = [piece.cell[1] for piece in p.pieces]
    pad = 2
    x0 = min(xs) + min(0, last * tx) - pad
    x1 = max(xs) + max(0, last * tx) + pad
    y0 = min(ys) + min(0, last * ty) - pad
    y1 = max(ys) + max(0, last * ty) + pad
    width, height = x1 - x0 + 1, y1 - y0 + 1
    if width * height > MAX_CELLS:
        raise PatternError(f"a picture of {width} x {height} cells is too "
                           f"large to draw (at most {MAX_CELLS} cells)")
    return x0, x1, y0, y1


def _rows(p: PeriodicPattern, box: tuple[int, int, int, int],
          look: Callable[[Vec, Optional[PlacedPiece]], Any],
          ) -> Iterator[list]:
    """The rows of ``box`` from the top, each the list of its cells' looks
    from the left.  A cell's look is ``look(cls, piece)`` of its class and
    the piece on that class (or None), never None itself, and is called
    once per class: every cell of a class looks the same."""
    (tx, ty), (x0, x1, y0, y1) = p.t, box
    tt = tx * tx + ty * ty
    by_class = p.class_map()
    looks = {}
    for y in range(y1, y0 - 1, -1):
        row = []
        for x in range(x0, x1 + 1):
            n = (x * tx + y * ty) // tt  # reduce_cell, written out
            cls = (x - n * tx, y - n * ty)
            v = looks.get(cls)
            if v is None:
                v = looks[cls] = look(cls, by_class.get(cls))
            row.append(v)
        yield row


def _layers(p: PeriodicPattern, spec: RenderSpec):
    """Whether pieces are shown, then the neighborhood, the partition and
    the control set of ``p``, each empty (None for control) unless
    ``spec.layers`` asks for it.  The partition's keys are the
    neighborhood and every look tests them first, so with the partition
    the neighborhood is not computed again."""
    want = set(spec.layers)
    regions = partition_neighborhood(p) if "partition" in want else {}
    return ("pieces" in want,
            neighborhood(p) if "neighborhood" in want and not regions
            else frozenset(),
            regions,
            control_of_pattern(p) if "control" in want else None)


def render(p: PeriodicPattern, spec: RenderSpec) -> str:
    # a PeriodicPattern built directly need not be canonical; one that
    # canonicalize returned (from parse, make_pattern) comes back at once
    p = canonicalize(p)
    if spec.format == "ascii":
        return render_ascii(p, spec)
    return render_svg(p, spec)


def _letter(piece: PlacedPiece) -> str:
    return KIND_LETTERS.get(piece.kind, piece.kind.name[0].upper())


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, byte for byte: importing ``saxutils``
    loads ``urllib``, ``http``, ``email``, ``ssl`` and ``socket``, which
    cost more than the rest of a command on a few-piece file."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_ascii(p: PeriodicPattern, spec: RenderSpec) -> str:
    box = _view(p, spec)
    show_pieces, nbhd, regions, ctrl = _layers(p, spec)

    def look(cls: Vec, piece: Optional[PlacedPiece]) -> str:
        if show_pieces and piece is not None:
            return _letter(piece) + ("^" if piece.orientation
                                     is Orientation.UP else "v")
        first = "*" if (ctrl is not None and ctrl.contains(cls)) else "."
        if cls in regions:
            return first + _REGION_LETTER[regions[cls]]
        return first + ("n" if cls in nbhd else ".")

    return "".join([" ".join(row) + "\n" for row in _rows(p, box, look)])


def _piece_path(x: int, y: int, up: bool) -> str:
    """Pentagon pointing up or down inside a one-cell box (SVG units)."""
    if up:
        return (f"M{x + 16},{y + 3} L{x + 28},{y + 12} L{x + 25},{y + 29} "
                f"L{x + 7},{y + 29} L{x + 4},{y + 12} Z")
    return (f"M{x + 16},{y + 29} L{x + 4},{y + 20} L{x + 7},{y + 3} "
            f"L{x + 25},{y + 3} L{x + 28},{y + 20} Z")


def render_svg(p: PeriodicPattern, spec: RenderSpec) -> str:
    x0, x1, y0, y1 = box = _view(p, spec)
    show_pieces, nbhd, regions, ctrl = _layers(p, spec)

    def look(cls: Vec, piece: Optional[PlacedPiece]):
        if cls in regions:
            fill = _REGION_FILL[regions[cls]]
        else:
            fill = "#e6e6e6" if cls in nbhd else None
        mark = ctrl is not None and ctrl.contains(cls)
        if not show_pieces or piece is None:
            return fill, mark, None
        return fill, mark, (piece.orientation is Orientation.UP,
                            _escape(_letter(piece)), piece.decoration)

    width = (x1 - x0 + 1) * CELL
    height = (y1 - y0 + 1) * CELL
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    # each cell's x (and circle centre) as text, once for every row
    xs = [str(j * CELL) for j in range(x1 - x0 + 1)]
    cxs = [str(j * CELL + 16) for j in range(x1 - x0 + 1)]
    grid, marks, hits = [], [], []
    for i, row in enumerate(_rows(p, box, look)):
        y = i * CELL
        edge = (f'" y="{y}" width="{CELL}" height="{CELL}" fill="none" '
                f'stroke="#999999" stroke-width="1"/>')
        grid.append('<rect x="' + (edge + '\n<rect x="').join(xs) + edge)
        # a row's fill and mark tails are built when it first needs them
        tails, mark_tail = {}, None
        for j, (fill, mark, piece) in enumerate(row):
            if fill:
                tail = tails.get(fill)
                if tail is None:
                    tail = tails[fill] = (f'" y="{y}" width="{CELL}" '
                                          f'height="{CELL}" fill="{fill}"/>')
                out.append('<rect x="' + xs[j] + tail)
            if mark:
                if mark_tail is None:
                    mark_tail = (f'" cy="{y + 16}" r="9" fill="#2e8b57" '
                                 f'fill-opacity="0.75"/>')
                marks.append('<circle cx="' + cxs[j] + mark_tail)
            if piece is not None:
                hits.append((j, i, piece))
    out += grid
    out += marks
    # pieces in sorted cell order: by x, then by y from the bottom
    for j, i, (up, letter, deco) in sorted(hits,
                                           key=lambda h: (h[0], -h[1])):
        x, y = j * CELL, i * CELL
        out.append(f'<path d="{_piece_path(x, y, up)}" fill="#f7e7c3" '
                   f'stroke="#5a4632" stroke-width="1.5"/>')
        out.append(f'<text x="{x + 16}" y="{y + 21}" font-size="13" '
                   f'font-family="sans-serif" text-anchor="middle" '
                   f'fill="#1a1a1a">{letter}</text>')
        if deco is not None:
            dx, dy = deco
            out.append(f'<line x1="{x + 16}" y1="{y + 16}" '
                       f'x2="{x + 16 + 10 * dx}" y2="{y + 16 - 10 * dy}" '
                       f'stroke="#b22222" stroke-width="2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
