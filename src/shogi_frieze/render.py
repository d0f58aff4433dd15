"""Deterministic ascii and SVG rendering of patterns and their analysis.

Ascii legend: occupied cells show the kind letter plus ``^``/``v``.  Empty
cells show two characters: ``*`` in the first position when the control
layer marks the cell, and in the second position the region letter
``i``/``b``/``o`` (partition layer) or ``n`` (neighborhood layer), with
``.`` as filler.  Rows are emitted top to bottom.

SVG: one cell is 32 units, the y axis is flipped at emission time, and all
content is emitted in sorted cell order so output bytes are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.sax.saxutils import escape

from .control import (RegionClass, control_of_pattern, neighborhood,
                      partition_neighborhood)
from .geometry import Vec, reduce_cell
from .pattern import PatternError, PeriodicPattern, canonicalize
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
            raise PatternError("periodsShown must be at least 1")


def _view(p: PeriodicPattern, spec: RenderSpec):
    """View box covering `periods` copies (padded by 2), with every piece
    whose cell falls inside it.  The box is computed from the pieces and
    the last copy's shift, so its cost does not grow with `periods`; a box
    of more than ``MAX_CELLS`` cells raises ``PatternError``."""
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
    pieces = {}
    by_class = p.class_map()
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            hit = by_class.get(reduce_cell((x, y), p.t))
            if hit is not None:
                pieces[(x, y)] = hit
    return pieces, x0, x1, y0, y1


def render(p: PeriodicPattern, spec: RenderSpec) -> str:
    p = canonicalize(p)
    if spec.format == "ascii":
        return render_ascii(p, spec)
    return render_svg(p, spec)


def render_ascii(p: PeriodicPattern, spec: RenderSpec) -> str:
    pieces, x0, x1, y0, y1 = _view(p, spec)
    want = set(spec.layers)
    nbhd = neighborhood(p) if want & {"neighborhood", "partition"} else frozenset()
    regions = partition_neighborhood(p) if "partition" in want else {}
    ctrl = control_of_pattern(p) if "control" in want else None

    lines = []
    for y in range(y1, y0 - 1, -1):
        row = []
        for x in range(x0, x1 + 1):
            cell = (x, y)
            piece = pieces.get(cell) if "pieces" in want else None
            if piece is not None:
                letter = KIND_LETTERS.get(piece.kind, piece.kind.name[0].upper())
                row.append(letter + ("^" if piece.orientation is Orientation.UP
                                     else "v"))
                continue
            cls = reduce_cell(cell, p.t)
            first = "*" if (ctrl is not None and ctrl.contains(cls)) else "."
            if "partition" in want and cls in regions:
                second = _REGION_LETTER[regions[cls]]
            elif "neighborhood" in want and cls in nbhd:
                second = "n"
            else:
                second = "."
            row.append(first + second)
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def _piece_path(x: float, y: float, up: bool) -> str:
    """Pentagon pointing up or down inside a one-cell box (SVG units)."""
    if up:
        pts = [(x + 16, y + 3), (x + 28, y + 12), (x + 25, y + 29),
               (x + 7, y + 29), (x + 4, y + 12)]
    else:
        pts = [(x + 16, y + 29), (x + 4, y + 20), (x + 7, y + 3),
               (x + 25, y + 3), (x + 28, y + 20)]
    return "M" + " L".join(f"{px},{py}" for px, py in pts) + " Z"


def render_svg(p: PeriodicPattern, spec: RenderSpec) -> str:
    pieces, x0, x1, y0, y1 = _view(p, spec)
    want = set(spec.layers)
    regions = partition_neighborhood(p) if "partition" in want else {}
    nbhd = neighborhood(p) if "neighborhood" in want else frozenset()
    ctrl = control_of_pattern(p) if "control" in want else None

    width = (x1 - x0 + 1) * CELL
    height = (y1 - y0 + 1) * CELL

    def px(cell: Vec) -> tuple[int, int]:
        return ((cell[0] - x0) * CELL, (y1 - cell[1]) * CELL)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    cells = [(x, y) for y in range(y1, y0 - 1, -1) for x in range(x0, x1 + 1)]
    if "partition" in want or "neighborhood" in want:
        for cell in cells:
            cls = reduce_cell(cell, p.t)
            fill = None
            if cls in regions:
                fill = _REGION_FILL[regions[cls]]
            elif cls in nbhd:
                fill = "#e6e6e6"
            if fill:
                x, y = px(cell)
                out.append(f'<rect x="{x}" y="{y}" width="{CELL}" '
                           f'height="{CELL}" fill="{fill}"/>')
    for cell in cells:  # grid
        x, y = px(cell)
        out.append(f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                   f'fill="none" stroke="#999999" stroke-width="1"/>')
    if ctrl is not None:
        for cell in cells:
            if ctrl.contains(reduce_cell(cell, p.t)):
                x, y = px(cell)
                out.append(f'<circle cx="{x + 16}" cy="{y + 16}" r="9" '
                           f'fill="#2e8b57" fill-opacity="0.75"/>')
    if "pieces" in want:
        for cell in sorted(pieces):
            piece = pieces[cell]
            x, y = px(cell)
            up = piece.orientation is Orientation.UP
            out.append(f'<path d="{_piece_path(x, y, up)}" fill="#f7e7c3" '
                       f'stroke="#5a4632" stroke-width="1.5"/>')
            letter = KIND_LETTERS.get(piece.kind, piece.kind.name[0].upper())
            out.append(f'<text x="{x + 16}" y="{y + 21}" font-size="13" '
                       f'font-family="sans-serif" text-anchor="middle" '
                       f'fill="#1a1a1a">{escape(letter)}</text>')
            if piece.decoration is not None:
                dx, dy = piece.decoration
                out.append(f'<line x1="{x + 16}" y1="{y + 16}" '
                           f'x2="{x + 16 + 10 * dx}" y2="{y + 16 - 10 * dy}" '
                           f'stroke="#b22222" stroke-width="2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
