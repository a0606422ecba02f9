"""The x-dependent q-binomial coefficient and its identity family."""

from collections import Counter

import pytest

from macdo.algebra import Frac, mp_prod, universe
from macdo.partitions import box_below, weak_compositions
from macdo.qbinomial import (chu_vandermonde2_diff, chu_vandermonde_diff,
                             double_poch_factors, interp_product_eval, interp_point,
                             ordinary_qbinom, qbinom_product_rule_diff,
                             qbinom_theorem_diff, qbinom_x)

U1 = universe(1)
U2 = universe(2)


def test_ordinary_qbinom_recurrence_values():
    assert ordinary_qbinom(U1, 2, 1) == U1.one() + U1.gen("q")
    q = U1.gen("q")
    assert ordinary_qbinom(U1, 3, 2) == U1.one() + q + q * q
    assert ordinary_qbinom(U1, 3, 5).is_zero()


def test_qbinom_x_single_variable_reduces():
    assert qbinom_x(U1, (2,), (1,)).eq(Frac(U1.one() + U1.gen("q")))
    for l in range(7):
        for k in range(l + 1):
            assert qbinom_x(U1, (l,), (k,)).eq(Frac(ordinary_qbinom(U1, l, k)))


def test_qbinom_x_degenerate_ends():
    for alpha in [(2, 1), (3, 0), (1, 1, 1)]:
        u = universe(len(alpha))
        zero = tuple(0 for _ in alpha)
        assert qbinom_x(u, alpha, zero).eq(Frac(u.one()))
        assert qbinom_x(u, alpha, alpha).eq(Frac(u.one()))
    with pytest.raises(ValueError):
        qbinom_x(U2, (1, 0), (0, 1))


def test_qbinom_x_agrees_with_the_uncancelled_construction():
    # the full double products over each other, with no factor cancelled
    for n in (1, 2, 3):
        u = universe(n)
        for w in range(5):
            for alpha in weak_compositions(w, n):
                for beta in box_below(alpha):
                    plain = Frac(mp_prod(u, double_poch_factors(u, alpha, beta)),
                                 Counter(double_poch_factors(u, beta, beta)))
                    assert qbinom_x(u, alpha, beta).eq(plain), (alpha, beta)


def test_interp_point_examples():
    assert [c.text() for c in interp_point(U2, (1, 0)).coords] == ["-x1^-1"]
    assert [c.text() for c in interp_point(U2, (2, 0)).coords] == \
        ["-x1^-1", "-q^-1*x1^-1"]
    assert [c.text() for c in interp_point(U2, (1, 1)).coords] == \
        ["-x1^-1", "-x2^-1"]
    assert interp_point(U2, (0, 0)).coords == ()


def test_interp_point_coordinates_distinct():
    for alpha in [(3, 0), (2, 1), (1, 1, 2)]:
        u = universe(len(alpha))
        pt = interp_point(u, alpha)
        assert len(set(pt.coords)) == len(pt.coords) == sum(alpha)


def test_interp_product_examples():
    assert interp_product_eval((1,), (1,)).eq(Frac(U1.one() - U1.gen("q")))
    assert interp_product_eval((0, 1), (1, 0)).is_zero()
    assert not interp_product_eval((2, 1), (2, 1)).is_zero()


def test_interp_product_consistency_small_grid():
    # direct substitution vs closed form is asserted inside interp_product_eval;
    # the vanishing pattern must match the componentwise order
    for n in (1, 2):
        for dg in range(3):
            for da in range(3):
                for g in weak_compositions(dg, n):
                    for a in weak_compositions(da, n):
                        vanish = interp_product_eval(g, a).is_zero()
                        assert vanish == (not all(x >= y for x, y in zip(g, a)))


def test_qbinom_theorem_examples():
    assert qbinom_theorem_diff((0, 0, 0)).is_zero()
    for l in range(7):
        assert qbinom_theorem_diff((l,)).is_zero()
    assert qbinom_theorem_diff((2, 1)).is_zero()


def test_chu_vandermonde_examples():
    assert chu_vandermonde_diff((2, 1), 0).is_zero()
    # alpha=(1,1), k=1 sums two cross-ratio terms to [2 1]_q
    diff = chu_vandermonde_diff((1, 1), 1)
    assert diff.is_zero()
    lhs = Frac(ordinary_qbinom(U2, 2, 1))
    assert (diff + lhs).eq(lhs)
    assert chu_vandermonde_diff((2, 1), 2).is_zero()


def test_chu_vandermonde_split_examples():
    assert chu_vandermonde2_diff((1,), (1,), 0).is_zero()
    assert chu_vandermonde2_diff((1,), (1,), 1).is_zero()
    assert chu_vandermonde2_diff((1, 0), (0, 1), 2).is_zero()


def test_product_rule_examples():
    assert qbinom_product_rule_diff((2, 1), (2, 1), (1, 0)).is_zero()  # gamma = alpha
    assert qbinom_product_rule_diff((2, 1), (1, 0), (1, 0)).is_zero()  # gamma = beta
    assert qbinom_product_rule_diff((2, 1), (1, 1), (1, 0)).is_zero()
    with pytest.raises(ValueError):
        qbinom_product_rule_diff((1, 0), (1, 1), (0, 0))


def test_product_rule_small_grid():
    for alpha in box_below((2, 2)):
        for gamma in box_below(alpha):
            for beta in box_below(gamma):
                assert qbinom_product_rule_diff(alpha, gamma, beta).is_zero()
