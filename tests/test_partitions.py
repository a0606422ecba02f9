"""Partition and multi-index combinatorics against brute-force oracles."""

import itertools
from math import comb

import pytest

from macdo.partitions import (Partition, box_below, dominance_downset,
                              dominance_order_list, mi_leq, mi_sub,
                              multi_indices_upto, parse_partition, partitions_of,
                              weak_compositions)


def brute_dominates(lam, mu):
    """Independent prefix-sum comparison on padded parts."""
    a = list(lam) + [0] * (len(mu) - len(lam))
    b = list(mu) + [0] * (len(lam) - len(mu))
    return all(sum(a[:i + 1]) >= sum(b[:i + 1]) for i in range(len(a)))


def diagram_arm_leg(lam, cell):
    """Count diagram cells strictly right of / strictly below the cell."""
    boxes = {(i, j) for i, p in enumerate(lam, 1) for j in range(1, p + 1)}
    i, j = cell
    arm = sum(1 for (a, b) in boxes if a == i and b > j)
    leg = sum(1 for (a, b) in boxes if b == j and a > i)
    return arm, leg


def test_partition_construction():
    assert Partition((3, 1, 0, 0)) == (3, 1)
    assert Partition(()).length() == 0
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_conjugate_examples():
    assert Partition((2, 1)).conjugate() == Partition((2, 1))
    assert Partition((3,)).conjugate() == Partition((1, 1, 1))
    assert Partition(()).conjugate() == Partition(())


def test_conjugate_is_involution():
    for d in range(9):
        for lam in partitions_of(d):
            assert lam.conjugate().conjugate() == lam


def test_prepend_examples():
    assert Partition((2, 1)).prepend(2) == Partition((2, 2, 1))
    assert Partition(()).prepend(3) == Partition((3,))
    with pytest.raises(ValueError):
        Partition((2,)).prepend(1)


def test_arm_leg_examples():
    assert Partition((1,)).arm_leg((1, 1)) == (0, 0)
    assert Partition((2, 1)).arm_leg((1, 1)) == diagram_arm_leg((2, 1), (1, 1)) == (1, 1)
    assert Partition((3,)).arm_leg((1, 2)) == diagram_arm_leg((3,), (1, 2)) == (1, 0)
    with pytest.raises(ValueError):
        Partition((2, 1)).arm_leg((2, 2))


def test_arm_leg_matches_diagram_count():
    for d in range(7):
        for lam in partitions_of(d):
            for cell in lam.cells():
                assert lam.arm_leg(cell) == diagram_arm_leg(lam, cell)


def test_dominance_list_examples():
    assert dominance_order_list(2, 2) == [Partition((1, 1)), Partition((2,))]
    assert dominance_order_list(0, 3) == [Partition(())]
    assert dominance_order_list(3, 3) == [Partition((1, 1, 1)), Partition((2, 1)),
                                          Partition((3,))]


def test_dominance_list_is_linear_extension():
    for d in range(8):
        for n in range(1, 4):
            lst = dominance_order_list(d, n)
            assert len(set(lst)) == len(lst)
            for i, mu in enumerate(lst):
                for lam in lst[i + 1:]:
                    # nothing later in the list is strictly dominated by mu
                    assert not (brute_dominates(mu, lam) and mu != lam)


def test_dominance_downset():
    lam = Partition((3, 1))
    down = dominance_downset(lam, 3)
    assert down[-1] == lam
    every = dominance_order_list(4, 3)
    assert down == [mu for mu in every if brute_dominates(lam, mu)]


def test_weak_compositions_examples():
    assert weak_compositions(1, 2) == [(1, 0), (0, 1)]
    assert weak_compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert weak_compositions(0, 3) == [(0, 0, 0)]


def test_weak_compositions_of_a_negative_weight_are_empty():
    for n in range(5):
        assert weak_compositions(-1, n) == []
        assert weak_compositions(-3, n) == []


def test_weak_compositions_into_a_negative_number_of_parts_are_empty():
    for m in (-1, 0, 2):
        for n in (-1, -3):
            assert weak_compositions(m, n) == []


def test_weak_compositions_count():
    for m in range(7):
        for n in range(1, 7):
            got = weak_compositions(m, n)
            assert len(got) == comb(m + n - 1, n - 1)
            assert len(set(got)) == len(got)


def test_mi_partial_order():
    assert mi_leq((1, 0), (2, 1))
    assert not mi_leq((2, 0), (1, 1))
    pts = list(itertools.product(range(3), repeat=2))
    for a in pts:
        assert mi_leq(a, a)
        for b in pts:
            if mi_leq(a, b) and mi_leq(b, a):
                assert a == b
            for c in pts:
                if mi_leq(a, b) and mi_leq(b, c):
                    assert mi_leq(a, c)
    with pytest.raises(ValueError):
        mi_leq((1,), (1, 2))


def test_mi_sub_and_box():
    assert mi_sub((2, 1), (1, 0)) == (1, 1)
    with pytest.raises(ValueError):
        mi_sub((1, 0), (0, 1))
    assert box_below((1, 1)) == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert all(mi_leq(b, (2, 1)) for b in box_below((2, 1)))
    assert len(box_below((2, 1))) == 6
    assert multi_indices_upto(1, 2) == [(0, 0), (1, 0), (0, 1)]


def test_partition_serialization():
    assert Partition((2, 2, 1)).to_string() == "2,2,1"
    assert Partition(()).to_string() == ""
    assert parse_partition("2,2,1") == Partition((2, 2, 1))
    assert parse_partition("") == Partition(())
    assert parse_partition("0") == Partition(())
