import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from shogi_frieze import (KING, PAWN, ROOK, PeriodicPattern, PieceKind,
                          canonicalize, moveset)
from shogi_frieze import render as render_module
from shogi_frieze.render import RenderSpec, render
from conftest import DOWN, piece

SVG = RenderSpec("svg", ("pieces", "partition", "control"))


def _kind(name):
    return PieceKind(name, moveset(steps=[(1, 0), (0, 1)], rides=[]))


@pytest.mark.parametrize("names", [("&amp",), ("<x",), (">x",),
                                   ("&x", "<y", ">z")])
def test_svg_letters_escaped_as_saxutils_does(names, monkeypatch):
    # a custom kind is drawn by the first letter of its name, here the
    # characters that XML text must escape
    p = canonicalize(PeriodicPattern(tuple(
        piece((i, 0), kind=_kind(name)) for i, name in enumerate(names)),
        (len(names) + 1, 0)))
    picture = render(p, SVG)
    monkeypatch.setattr(render_module, "_escape", escape)
    assert picture == render(p, SVG)
    texts = {el.text for el in ET.fromstring(picture).iter()
             if el.tag.endswith("}text")}
    assert texts == {name[0] for name in names}


# Patterns built directly, not through make_pattern: a cell outside its
# reduced class, a negative t, and a t longer than the minimal period.
UNCANONICAL = {
    "unreduced cells": PeriodicPattern(
        (piece((7, 1)), piece((-4, 0), kind=PAWN)), (3, 0)),
    "negative t": PeriodicPattern(
        (piece((0, 0), kind=ROOK), piece((0, 1), DOWN)), (-2, 1)),
    "non-minimal t": PeriodicPattern(
        (piece((0, 0), decoration=(0, 1)), piece((1, 0), kind=PAWN),
         piece((2, 0), decoration=(0, 1)), piece((3, 0), kind=PAWN)),
        (4, 0)),
    "vertical, all three": PeriodicPattern(
        (piece((2, 5), kind=KING), piece((2, 8), kind=KING),
         piece((3, -1), DOWN, PAWN), piece((3, 2), DOWN, PAWN)), (0, -6)),
}


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
@pytest.mark.parametrize("name", sorted(UNCANONICAL))
def test_render_canonicalizes_a_pattern_built_directly(fmt, name):
    # render keeps its canonicalize call: the cell pass looks pieces up by
    # reduced class, so without it these pictures would differ
    p = UNCANONICAL[name]
    assert canonicalize(p) != p
    for layers in (("pieces",), ("pieces", "partition", "control")):
        for periods in (1, 2):
            spec = RenderSpec(fmt, layers, periods)
            assert render(p, spec) == render(canonicalize(p), spec)
