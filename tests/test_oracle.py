import random

import pytest

from shogi_frieze import (control_of_pattern, make_pattern, ncc_status,
                          neighborhood, partition_neighborhood)
from shogi_frieze.geometry import reduce_cell
from shogi_frieze.pattern import PatternError
from shogi_frieze import oracle
from conftest import piece, random_pattern


def test_replicate_singleton_line():
    p = make_pattern([piece((0, 0))], (3, 0))
    b = oracle.replicate(p, 9)
    assert len(b.occupancy) == 9
    assert {c[1] for c in b.occupancy} == {0}


def test_replicate_rejects_even_or_small():
    p = make_pattern([piece((0, 0))], (3, 0))
    with pytest.raises(PatternError):
        oracle.replicate(p, 2)
    with pytest.raises(PatternError):
        oracle.replicate(p, 7)


def test_replicate_diagonal():
    p = make_pattern([piece((0, 0))], (1, 1))
    b = oracle.replicate(p, 9)
    assert len(b.occupancy) == 9
    assert all(x == y for (x, y) in b.occupancy)


def test_isolated_king_agrees():
    p = make_pattern([piece((0, 0))], (9, 0))
    st = ncc_status(p)
    ost = oracle.brute_ncc(oracle.replicate(p, 9))
    assert st.verdict == ost.verdict


def window_comparison(p):
    N = oracle.sufficient_copies(p)
    board = oracle.replicate(p, N)
    win = oracle.window_cells(board)
    ctrl = control_of_pattern(p)
    nbhd = neighborhood(p)
    part = partition_neighborhood(p)
    periodic_ctrl = {c for c in win if ctrl.contains(reduce_cell(c, p.t))}
    periodic_nbhd = {c for c in win if reduce_cell(c, p.t) in nbhd}
    periodic_part = {c: part[reduce_cell(c, p.t)] for c in periodic_nbhd}
    brute_ctrl = oracle.brute_control(board) & win
    brute_nbhd = oracle.brute_neighborhood(board) & win
    brute_part = {c: r for c, r in oracle.brute_partition(board).items()
                  if c in win}
    return ((periodic_ctrl, periodic_nbhd, periodic_part, ncc_status(p)),
            (brute_ctrl, brute_nbhd, brute_part, oracle.brute_ncc(board)),
            N)


def test_differential_random_patterns():
    rng = random.Random(61)
    for _ in range(100):
        p = random_pattern(rng)
        (pc, pn, pp, pst), (oc, on, op, ost), N = window_comparison(p)
        assert pc == oc
        assert pn == on
        assert pp == op
        assert pst == ost


def test_buffer_stability():
    rng = random.Random(67)
    for _ in range(25):
        p = random_pattern(rng)
        N = oracle.sufficient_copies(p)
        a = oracle.brute_ncc(oracle.replicate(p, N))
        b = oracle.brute_ncc(oracle.replicate(p, N + 2))
        assert a.verdict == b.verdict
        assert a.uncontrolled_class == b.uncontrolled_class
