"""Integer lattice helpers.

Cells and displacements are plain ``(x, y)`` tuples: x grows to the right,
y grows upward.  All periodic computations quotient the lattice by the
subgroup generated by a nonzero translation vector ``t``; the helpers here
implement that reduction and the two linear coordinates used throughout:

* ``dot(c, t) = c . t``        position along the translation axis,
* ``cross(c, t) = x*ty - y*tx`` position across it (invariant under +t).

``self_maps`` finds the maps c -> S c + o that send a set of classes onto
itself: periods, symmetries and the search's verdicts are read off it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

Vec = tuple[int, int]

UNIT_DIRS: tuple[Vec, ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)


def add(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def neg(a: Vec) -> Vec:
    return (-a[0], -a[1])


def scale(a: Vec, k: int) -> Vec:
    return (a[0] * k, a[1] * k)


def dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1]


def cross(c: Vec, t: Vec) -> int:
    """Signed area coordinate; constant on each translation class of t."""
    return c[0] * t[1] - c[1] * t[0]


def is_unit(d: Vec) -> bool:
    return d != (0, 0) and abs(d[0]) <= 1 and abs(d[1]) <= 1


def reduce_cell(cell: Vec, t: Vec) -> Vec:
    """Canonical representative of ``cell`` modulo translations by ``t``.

    Returns ``cell - k*t`` with ``k = floor((cell . t) / (t . t))``, i.e. the
    unique member of the class whose projection onto t lies in [0, t.t).
    """
    if t == (0, 0):
        raise ValueError("zero translation vector")
    k = dot(cell, t) // dot(t, t)
    return (cell[0] - k * t[0], cell[1] - k * t[1])


def canonical_sign(t: Vec) -> Vec:
    """Flip t if needed so dx > 0, or dx == 0 and dy > 0."""
    if t[0] < 0 or (t[0] == 0 and t[1] < 0):
        return neg(t)
    return t


def self_maps(t: Vec, cells: Sequence[Vec],
              S: Vec) -> Iterator[tuple[Vec, tuple[int, ...]]]:
    """Each map c -> S c + o, S = diag(+-1, +-1), that sends the classes
    ``cells`` (distinct and reduced mod t) onto themselves, as ``(o,
    perm)``: class i goes to class perm[i].  None unless S t = +-t, as only
    then does S act on classes.  o = c_j - S c_0 modulo t for some j: one
    candidate per j, so the cost does not depend on |t|."""
    (sx, sy), (tx, ty) = S, t
    if (sx * tx, sy * ty) not in (t, (-tx, -ty)):
        return
    index = {c: i for i, c in enumerate(cells)}
    tt = tx * tx + ty * ty
    x0, y0 = cells[0]
    for xj, yj in cells:
        ox, oy = xj - sx * x0, yj - sy * y0
        perm = []
        for x, y in cells:  # reduce_cell, written out
            u, v = sx * x + ox, sy * y + oy
            n = (u * tx + v * ty) // tt
            k = index.get((u - n * tx, v - n * ty))
            if k is None:
                break
            perm.append(k)
        else:
            yield (ox, oy), tuple(perm)
