"""The searches' reports and the classifier's answers, pinned by the
sha256 of their ``repr``.

The search constants are the reports of the search that judged every form
on its own verdict kernel: every report, its pattern, its per-kind statuses
(witness and uncontrolled classes included) and their order must stay as
that search gave them.  The classify constants are the witnesses and the
canonical patterns of a seeded sample, as the classifier gave them when
periods and symmetries were tested piece by piece.  The render constants
are the ascii and svg pictures of the fixtures and a seeded sample, as
``render`` drew them when it reduced every cell once per layer; the wide
render constants (all four layers at 40 periods) and the largest picture
(the p11g fixture at 8 900 periods, pinned by the sha256 of its bytes) are
as ``render`` drew them a cell at a time.  The
control constant is what ``control_of_pattern`` listed, kept as segments
and kept as free lines for the render sample and long-ride motifs, as it
gave them when it walked each ride with ``Segment.classes``.  CI runs
this file under two hash seeds, because nothing in a report or a picture
may depend on one.
"""

import functools
import hashlib
import random

import pytest

from shogi_frieze import (BISHOP, GOLD, KIND_COLUMNS, KING, PAWN, ROOK,
                          ROW_ORDER, STANDARD_KINDS, FriezeGroup, Orientation,
                          PatternError, PeriodicPattern, PlacedPiece,
                          SearchBounds, canonicalize, control_of_pattern,
                          detect_symmetries, find_crystal, find_duality,
                          find_special_form, generate_from_recipe,
                          make_pattern, parse, staircase_target)
from shogi_frieze.geometry import UNIT_DIRS, reduce_cell
from shogi_frieze.render import RenderSpec, render
from conftest import FIXTURE_DIR, LEFTY

SMALL = {
    "plain": SearchBounds(2, (2, 2), 2),
    "decorated": SearchBounds(2, (2, 2), 2, allow_decorations=True),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _scan_reports(name):
    """The reports of the benchmark's two scans."""
    if name == "p1":
        return find_crystal(FriezeGroup.P1, dict.fromkeys(KIND_COLUMNS, False),
                            SearchBounds(3, (3, 3), 3))
    return find_crystal(FriezeGroup.P11G,
                        {k: k is KING for k in KIND_COLUMNS},
                        SearchBounds(4, (4, 3), 4))


def _staircase_reports(bounds, group):
    """The group's reports for every staircase row's target."""
    return [find_crystal(group, staircase_target(row), bounds)
            for row in range(len(ROW_ORDER))]


SCANS = {
    "p1": "58377d4ecb64fd4dba97baaa5af728b30a16f80c44e0468236d52bcf61158d9c",
    "p11g": "ccbe3c35c189acb365fd887cc92fc3da81ce6ff831cbf747722a654b3af043dc",
}

STAIRCASE = {
    ("plain", "p2mm"):
        "066903ae3609474b46fc735de4041627746496d7448a6ae055576f3cd7fb7ce2",
    ("plain", "p2"):
        "5a55cb9a2ccd1df47233e586c0f368f94299a5895994c1abd47a6d82c9d73532",
    ("plain", "p1m1"):
        "573fe3d1524c4287a91aff881457d69ac8f2ccc97fd9a169dff09f0fc230a9db",
    ("plain", "p11m"):
        "112a471e4665f8555bfea2b328264dece72b641d5ae2616d19c2e10b7923378b",
    ("plain", "p2mg"):
        "b217a5fcfd3f900ea52f75ded9751da4e4157ce7b54a2793b8a47153135b82e4",
    ("plain", "p1"):
        "3e9331506795d86fb5b7fa8544ef2d17307536618551a78712a1fa098fbb4ff1",
    ("plain", "p11g"):
        "7892894e0ef3d2d226096b1179d6516bf5ace221a54075269ebb0d3c95d7281e",
    ("decorated", "p2mm"):
        "11a39c225a0f80a82465753962a87877979e1861e6b4127f79a34bf83beed014",
    ("decorated", "p2"):
        "396c5da6331b4552ca1dd778759ab56c8dc8f641a1bbc23aa33135a5d8124120",
    ("decorated", "p1m1"):
        "55e42c64f90a33e3d760d779a3c16df36301bc3c6e004f2abc455afe47146b52",
    ("decorated", "p11m"):
        "bcf5df512672422f93b8e91a50d4236da4b1011a696e7f02adb04efb234418e0",
    ("decorated", "p2mg"):
        "b6dff76bd6d02b83c6436c8cfc6209f2e87d3f7da9f5b86b5f6eca5b4b9a8c23",
    ("decorated", "p1"):
        "4409942dbdbc6fd36f0af823b910bb0d5fced6d170c7ba034b76ea19e3caa788",
    ("decorated", "p11g"):
        "fe3b80b14d2a51025172bf1d9f2916f8077644fdef76504957d1b4ec6df8699b",
}

OTHERS = {
    "special":
        "8c906891f45aac7cf9ef675bc8e8f696ea01ba5f51bb4fc29685b264b9916cdb",
    "duality":
        "c3a876b877147e6d39accb81fa515a6cd75c8c68d8d9ae36de0224ba977eeb2e",
}


@pytest.mark.parametrize("name", sorted(SCANS))
def test_benchmark_scan_reports_unchanged(name):
    assert _digest(_scan_reports(name)) == SCANS[name]


@pytest.mark.parametrize("space, group", [
    (space, group) for space in SMALL for group in ROW_ORDER],
    ids=lambda v: getattr(v, "value", v))
def test_staircase_reports_unchanged(space, group):
    assert _digest(_staircase_reports(SMALL[space], group)) \
        == STAIRCASE[space, group.value]


def test_special_form_and_duality_unchanged():
    bounds = SMALL["plain"]
    assert _digest(find_special_form(bounds)) == OTHERS["special"]
    assert _digest(find_duality(bounds)) == OTHERS["duality"]


def _classify_sample():
    """Seeded patterns as drawn, before ``canonicalize``: motifs on
    horizontal, vertical and diagonal translations, with mixed kinds and
    decorations, stamped one to three times along t (so that t can be a
    multiple of their period) or closed under a group's recipe, then the
    long periods of ``test_minimal_period_from_piece_pairs_at_long_period``.
    Of 288 draws, the 6 recipes that are refused (a collision, an odd
    period) are left out."""
    rng = random.Random(1301)
    directions = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2))
    kind_sets = ((KING,), (KING, PAWN), STANDARD_KINDS)
    orientations = (Orientation.UP, Orientation.DOWN)
    out = []
    for i in range(288):
        dx, dy = directions[i % len(directions)]
        n = rng.randint(1, 3)
        u = (dx * n, dy * n)
        kinds = rng.choice(kind_sets)
        motif = {}
        for _ in range(rng.randint(1, 4)):
            c = reduce_cell((rng.randint(-3, 3), rng.randint(-3, 3)), u)
            deco = rng.choice(UNIT_DIRS) if rng.random() < 0.3 else None
            motif[c] = (rng.choice(kinds), rng.choice(orientations), deco)
        if i % 4 == 3:
            group = (rng.choice(list(FriezeGroup)) if 0 in u
                     else rng.choice((FriezeGroup.P1, FriezeGroup.P2)))
            basic = [PlacedPiece(c, *a) for c, a in list(motif.items())[:2]]
            try:
                out.append(generate_from_recipe(
                    basic, group, (2 * u[0], 2 * u[1]),
                    axis_x=rng.randint(-2, 2) / 2,
                    axis_y=rng.randint(-2, 2) / 2,
                    center=(rng.randint(-2, 2) / 2, rng.randint(-2, 2) / 2)))
            except PatternError:
                pass
            continue
        copies = rng.choice((1, 1, 2, 3))
        sign = rng.choice((1, -1))
        t = (sign * u[0] * copies, sign * u[1] * copies)
        pieces = [PlacedPiece((x + k * u[0], y + k * u[1]), *a)
                  for (x, y), a in motif.items() for k in range(copies)]
        out.append(PeriodicPattern(tuple(pieces), t))
    big = 10 ** 9
    half, step = big // 2, 10 ** 8

    def king(cell, o=Orientation.UP):
        return PlacedPiece(cell, KING, o)

    down = Orientation.DOWN
    for pieces, t in (
            ([king((0, 0)), king((half, 0)), king((7, 1), down),
              king((half + 7, 1), down)], (big, 0)),
            ([king((0, 0)), king((half, 0), down)], (big, 0)),
            ([king((k * 4, k * 4)) for k in range(3)], (12, 12)),
            ([king((k * step, 0)) for k in range(6)], (6 * step, 0))):
        out.append(PeriodicPattern(tuple(pieces), t))
    return out


CLASSIFY = {
    "detect_symmetries":
        "f965e79db0c26b07d128a8f5b50bf5cec637fb711dc0bbc27d54b2382e157693",
    "canonicalize":
        "6df3549fdf529574bd54013d1b684793aba26a9ed71da0fa5feeeb270f3ed38b",
}


@pytest.mark.parametrize("name", sorted(CLASSIFY))
def test_classify_sample_unchanged(name):
    step = {"detect_symmetries": detect_symmetries,
            "canonicalize": canonicalize}[name]
    assert _digest([step(p) for p in _classify_sample()]) == CLASSIFY[name]


@functools.cache
def _render_sample():
    """The 7 fixtures, then seeded motifs on horizontal, vertical and
    diagonal translations, stamped one to three times along t, with mixed
    kinds, a custom kind (``LEFTY``) and decorations."""
    out = [parse((FIXTURE_DIR / f"{g.label}.pattern").read_text("utf-8"))
           for g in ROW_ORDER]
    rng = random.Random(1907)
    directions = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2), (0, -1))
    kind_sets = ((KING,), (KING, PAWN), STANDARD_KINDS, (LEFTY, GOLD))
    orientations = (Orientation.UP, Orientation.DOWN)
    for i in range(56):
        dx, dy = directions[i % len(directions)]
        n = rng.randint(1, 3)
        u = (dx * n, dy * n)
        kinds = kind_sets[i // len(directions) % len(kind_sets)]
        motif = {}
        for _ in range(rng.randint(1, 4)):
            c = reduce_cell((rng.randint(-3, 3), rng.randint(-3, 3)), u)
            deco = rng.choice(UNIT_DIRS) if rng.random() < 0.3 else None
            motif[c] = (rng.choice(kinds), rng.choice(orientations), deco)
        copies = rng.choice((1, 1, 2, 3))
        t = (u[0] * copies, u[1] * copies)
        out.append(PeriodicPattern(tuple(
            PlacedPiece((x + k * u[0], y + k * u[1]), *a)
            for (x, y), a in motif.items() for k in range(copies)), t))
    return out


RENDER_LAYERS = ("pieces", "pieces,partition,control", "neighborhood,control",
                 "pieces,neighborhood,partition,control")

RENDER = {
    ("ascii", "pieces"):
        "19cb5e8bb9b3175c031528537a052c884d30edf00c6c199c6026ad5264cac14a",
    ("ascii", "pieces,partition,control"):
        "f8c411d93b8494fc4ef931a94b19a43c4d1897f721a1ad1def30187479888bd4",
    ("ascii", "neighborhood,control"):
        "1cc483b46f2c67a877d1c313ec59b5b5b4c6d609ccfe1eb6b008403a2e9399e6",
    ("ascii", "pieces,neighborhood,partition,control"):
        "f8c411d93b8494fc4ef931a94b19a43c4d1897f721a1ad1def30187479888bd4",
    ("svg", "pieces"):
        "fc170f41a03832f416fba428cca7dd6b365021b007d883b31dff2570bbbd1cab",
    ("svg", "pieces,partition,control"):
        "cffd3f310c35440b09de6a1608eb76d531fe4dfb6ea0e94f2f1098d5e0dfc098",
    ("svg", "neighborhood,control"):
        "8db10113bbddda4d57a7153fb85e5c5924272889a5d403d8a7858739cdafd47c",
    ("svg", "pieces,neighborhood,partition,control"):
        "cffd3f310c35440b09de6a1608eb76d531fe4dfb6ea0e94f2f1098d5e0dfc098",
}


@pytest.mark.parametrize("fmt, layers", [
    (fmt, layers) for fmt in ("ascii", "svg") for layers in RENDER_LAYERS])
def test_render_output_unchanged(fmt, layers):
    pictures = [render(p, RenderSpec(fmt, tuple(layers.split(",")), periods))
                for periods in (1, 3) for p in _render_sample()]
    assert _digest(pictures) == RENDER[fmt, layers]


# The same sample at 40 periods with all four layers, so that rows are up to
# 239 cells wide and pictures up to 245 rows tall.
RENDER_WIDE = {
    "ascii": "dcb9d3266936d2fd1ef5df3d72c67952373d0d60603a7547978ef5ed10cf535e",
    "svg": "26031f3c58bce2307bf7ed3e5fe811a1c063c7306d5daaa64d8ac8b052a8309a",
}


@pytest.mark.parametrize("fmt", sorted(RENDER_WIDE))
def test_wide_render_output_unchanged(fmt):
    spec = RenderSpec(fmt, ("pieces", "neighborhood", "partition", "control"),
                      40)
    pictures = [render(p, spec) for p in _render_sample()]
    assert _digest(pictures) == RENDER_WIDE[fmt]


def test_largest_picture_unchanged():
    # the p11g fixture at 8 900 periods: 35 604 x 7 cells, near MAX_CELLS
    # (250 000), and 53 843 928 bytes of svg
    p = _render_sample()[ROW_ORDER.index(FriezeGroup.P11G)]
    picture = render(p, RenderSpec("svg", ("pieces", "partition", "control"),
                                   8900)).encode()
    assert len(picture) == 53_843_928
    assert hashlib.sha256(picture).hexdigest() == \
        "a171863a151f597e7ebc89c606adc6587ff37cf0c51224fd467b411dea431290"


def _control_sample():
    """``_render_sample()``, then motifs that take each long-ride path: a
    lone rook at t = (33, 0) (a ride round 32 classes, listed), at
    (34, 0) and (0, 100) (segments of 33 and 99 classes) and at (40, 1)
    (free and nearly parallel to t), and a bishop with a king at (1, 0)
    at t = (40, 40) (diagonal segments of 39 classes)."""
    up, down = Orientation.UP, Orientation.DOWN
    rook = [PlacedPiece((0, 0), ROOK, up)]
    bishop = [PlacedPiece((0, 0), BISHOP, up), PlacedPiece((1, 0), KING, down)]
    return _render_sample() + [
        make_pattern(pieces, t) for pieces, t in (
            (rook, (33, 0)), (rook, (34, 0)), (rook, (0, 100)),
            (rook, (40, 1)), (bishop, (40, 40)))]


CONTROL = "4b9e5b7ec2f9e784842e97d5392546015f22d30899476c16ea765ff4d8977728"


def test_control_output_unchanged():
    sets = [control_of_pattern(p) for p in _control_sample()]
    assert _digest([(sorted(c.listed), c.segments, c.free_lines)
                    for c in sets]) == CONTROL
