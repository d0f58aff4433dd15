"""The searches' reports, pinned by the sha256 of their ``repr``.

The constants are the reports of the search that judged every form on its
own verdict kernel: every report, its pattern, its per-kind statuses
(witness and uncontrolled classes included) and their order must stay as
that search gave them.  CI runs this file under two hash seeds, because
nothing in a report may depend on one.
"""

import hashlib

import pytest

from shogi_frieze import (KIND_COLUMNS, KING, ROW_ORDER, FriezeGroup,
                          SearchBounds, find_crystal, find_duality,
                          find_special_form, staircase_target)

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
