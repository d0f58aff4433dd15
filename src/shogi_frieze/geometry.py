"""Integer lattice helpers.

Cells and displacements are plain ``(x, y)`` tuples: x grows to the right,
y grows upward.  All periodic computations quotient the lattice by the
subgroup generated by a nonzero translation vector ``t``; the helpers here
implement that reduction and the two linear coordinates used throughout:

* ``dot(c, t) = c . t``        position along the translation axis,
* ``cross(c, t) = x*ty - y*tx`` position across it (invariant under +t).
"""

from __future__ import annotations

Vec = tuple[int, int]

UNIT_DIRS: tuple[Vec, ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)

ORTHO_DIRS: tuple[Vec, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


def add(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


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
