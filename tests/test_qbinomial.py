"""The x-dependent q-binomial coefficient and its identity family."""

import itertools
from collections import Counter
from math import comb

import pytest

from macdo import qbinomial
from macdo.algebra import Frac, frac_sum, mp_prod, qpoch, universe
from macdo.partitions import box_below, mi_leq, weak_compositions
from macdo.qbinomial import (chu_vandermonde2_diff, chu_vandermonde_diff,
                             double_poch_factors, graded_qbinom_sum,
                             interp_product_eval, interp_point, ordinary_qbinom,
                             qbinom_product_rule_diff, qbinom_theorem_diff, qbinom_x)

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


def test_pochhammer_family_table_hands_out_the_uncached_build():
    # the memoized family is a shared tuple equal to a fresh build, factor
    # for factor, and each factor is 1 - t^e q^(c+nu) x_i/x_j, nu < k
    family = qbinomial._poch_family
    for u in (U2, universe(2, 1, u=True)):
        for c, i, j, e, k in itertools.product((-1, 0, 2), (1, 2), (1, 2), (0, 1),
                                               (0, 1, 3)):
            got = family(u, c, i, j, e, k)
            fresh = family.__wrapped__(u, c, i, j, e, k)
            assert isinstance(got, tuple) and isinstance(fresh, tuple)
            assert [list(f.terms.items()) for f in got] == \
                [list(f.terms.items()) for f in fresh]
            assert family(u, c, i, j, e, k) is got
            ratio = Counter({"x%d" % i: 1})
            ratio["x%d" % j] -= 1
            want = [u.one() - u.mono(1, {"q": c + nu, "t": e, **ratio}) for nu in range(k)]
            assert list(got) == want, (c, i, j, e, k)


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


# -- the graded sums A_w(alpha) behind both summation theorems ------------------------


def _direct_qbinom_theorem_diff(alpha, coeff=qbinom_x):
    # the check before its regrouping by |beta|: one term per beta <= alpha
    uu = universe(len(alpha), u=True)
    terms = [coeff(uu, alpha, beta) *
             uu.mono((-1) ** sum(beta), {"q": comb(sum(beta), 2), "u": sum(beta)})
             for beta in box_below(alpha)]
    return frac_sum(uu, terms) - qpoch(uu.gen("u"), sum(alpha))


def _direct_chu_vandermonde2_diff(alpha, beta, k, coeff=qbinom_x):
    # the double sum before its regrouping by |mu|: one term per (mu, nu)
    n = len(alpha)
    u = universe(n)
    terms = []
    for mu in box_below(alpha):
        wm = sum(mu)
        for nu in weak_compositions(k - wm, n) if wm <= k else ():
            if mi_leq(nu, beta):
                terms.append(coeff(u, alpha, mu) * coeff(u, beta, nu) *
                             u.mono(1, {"q": (sum(alpha) - wm) * (k - wm)}))
    return frac_sum(u, terms) - ordinary_qbinom(u, sum(alpha) + sum(beta), k)


def _tilted(u, alpha, mu):
    # C[alpha,mu] (1 + t^(mu_1 + 1)): satisfies neither theorem, so the
    # regrouped and the direct sums are compared on values that do not vanish
    return qbinom_x(u, alpha, mu) * (u.one() + u.mono(1, {"t": mu[0] + 1}))


@pytest.fixture(params=["C", "tilted C"])
def coeff(request, monkeypatch):
    if request.param == "C":
        yield qbinom_x
        return
    graded_qbinom_sum.cache_clear()
    monkeypatch.setattr(qbinomial, "qbinom_x", _tilted)
    yield _tilted
    graded_qbinom_sum.cache_clear()


# n <= 2, |alpha| <= 3
SMALL_ALPHAS = [alpha for n in (1, 2) for w in range(4) for alpha in weak_compositions(w, n)]


def test_regrouped_qbinom_theorem_is_the_direct_sum(coeff):
    nonzero = 0
    for alpha in SMALL_ALPHAS:
        got = qbinom_theorem_diff(alpha)
        assert got.eq(_direct_qbinom_theorem_diff(alpha, coeff)), alpha
        nonzero += not got.is_zero()
    assert nonzero == (0 if coeff is qbinom_x else len(SMALL_ALPHAS))


def test_regrouped_split_chu_vandermonde_is_the_direct_double_sum(coeff):
    nonzero = 0
    for alpha in SMALL_ALPHAS:
        for beta in SMALL_ALPHAS:
            if len(beta) != len(alpha):
                continue
            for k in range(sum(alpha) + sum(beta) + 2):
                got = chu_vandermonde2_diff(alpha, beta, k)
                assert got.eq(_direct_chu_vandermonde2_diff(alpha, beta, k, coeff)), \
                    (alpha, beta, k)
                nonzero += not got.is_zero()
    assert (nonzero > 0) == (coeff is not qbinom_x)


def test_a_wrong_graded_sum_fails_both_theorems(monkeypatch):
    # negative control: A_w replaced by q A_w
    orig = qbinomial.graded_qbinom_sum
    monkeypatch.setattr(qbinomial, "graded_qbinom_sum",
                        lambda u, alpha, w: orig(u, alpha, w) * u.gen("q"))
    assert not qbinom_theorem_diff((1, 1)).is_zero()
    assert not qbinom_theorem_diff((2,)).is_zero()
    assert not chu_vandermonde2_diff((1, 0), (0, 1), 1).is_zero()
    assert not chu_vandermonde2_diff((2, 1), (1, 1), 3).is_zero()


def test_graded_sums_have_empty_bags():
    # A_w(alpha) is a polynomial: [|alpha| choose w]_q
    for n in (1, 2, 3):
        u = universe(n)
        for d in range(6):
            for alpha in weak_compositions(d, n):
                for w in range(d + 1):
                    a_w = graded_qbinom_sum(u, alpha, w)
                    assert a_w.bag == (), (alpha, w)
                    assert a_w.num == ordinary_qbinom(u, d, w), (alpha, w)
    assert graded_qbinom_sum(U2, (1, 1), 3).is_zero()
