"""x-dependent q-binomial coefficients, interpolation points, identity suite.

The central object is the double-product coefficient C[alpha,beta](x)
attached to multi-indices beta <= alpha, an unreduced fraction in (q, x)
that collapses to the ordinary q-binomial coefficient in one variable.
Interpolation points p_alpha pack the |alpha| values -1/(q^nu x_i) used to
pin down operator coefficients; substituting them is exact Laurent-monomial
substitution, never a limit.

The q-binomial theorem and the split Chu-Vandermonde identity are sums of
C[alpha,mu] weighted by a function of |mu| alone, so both are checked
through the graded sums A_w(alpha) = sum_{|mu|=w} C[alpha,mu]
(:func:`graded_qbinom_sum`), memoized and in lowest terms: the same exact
sums regrouped, with no identity assumed.  The first Chu-Vandermonde
identity is built from ordinary q-binomials and cross-ratios, not from
qbinom_x, so it stays an independent check of A_w.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .algebra import (Frac, MPoly, VarUniverse, cauchy_kernel, frac_sum, mp_prod,
                      qpoch, qpoch_factors, universe)
from .partitions import mi_leq, mi_sub, mi_weight, weak_compositions


@lru_cache(maxsize=None)
def _poch_family(u: VarUniverse, c: int, i: int, j: int, e: int, k: int) -> tuple:
    """The k factors 1 - t^e q^{c+nu} x_i/x_j, nu < k, of (t^e q^c x_i/x_j; q)_k.

    x_i/x_j is left out when i == j.  The one builder of every Pochhammer
    family here, memoized per (universe, c, i, j, e, k); the tuple is shared.
    """
    exps = {"q": c, "t": e}
    if i != j:
        exps["x%d" % i] = 1
        exps["x%d" % j] = -1
    return tuple(qpoch_factors(u.mono(1, exps), k))


def double_poch_factors(u: VarUniverse, a: tuple, b: tuple, k: tuple | None = None,
                        e: int = 0) -> tuple:
    """The binomial factors of prod_{i,j} (t^e q^{a_i-b_j+1} x_i/x_j; q)_{k_j}.

    ``k`` defaults to ``b``.  This one double product builds both sides of
    C[alpha,beta](x), the value of the Cauchy kernel at p_alpha and every
    Pochhammer family of the block coefficients b_alpha.
    """
    n = len(a)
    k = b if k is None else k
    return tuple(f for i in range(1, n + 1) for j in range(1, n + 1)
                 for f in _poch_family(u, a[i - 1] - b[j - 1] + 1, i, j, e, k[j - 1]))


@lru_cache(maxsize=None)
def ordinary_qbinom(u: VarUniverse, l: int, k: int) -> MPoly:
    """Ordinary q-binomial coefficient by the q-Pascal recurrence.

    Independent of the double-product construction on purpose: it serves as
    the oracle the n=1 specialization is tested against.
    """
    if k < 0 or k > l:
        return u.zero()
    if k == 0 or k == l:
        return u.one()
    return ordinary_qbinom(u, l - 1, k - 1) + \
        ordinary_qbinom(u, l - 1, k).mono_mul(1, {"q": k})


@lru_cache(maxsize=None)
def qbinom_x(u: VarUniverse, alpha: tuple, beta: tuple) -> Frac:
    """The generalized coefficient C[alpha,beta](x).

    prod_{i,j} (q^{alpha_i-beta_j+1} x_i/x_j)_{beta_j}
             / (q^{beta_i-beta_j+1} x_i/x_j)_{beta_j}

    with the factors both sides share cancelled (:meth:`Frac.from_factors`);
    the rest stays unreduced.
    """
    n = u.n_x
    if len(alpha) != n or len(beta) != n:
        raise ValueError("multi-index length must match the universe")
    if not mi_leq(beta, alpha):
        raise ValueError("need beta <= alpha componentwise")
    return Frac.from_factors(u, double_poch_factors(u, alpha, beta),
                             double_poch_factors(u, beta, beta))


@dataclass(frozen=True)
class InterpPoint:
    """The |alpha| interpolation coordinates -1/(q^nu x_i), nu < alpha_i."""

    alpha: tuple
    coords: tuple  # Laurent monomials, block i ascending, nu ascending


def interp_point(u: VarUniverse, alpha: tuple) -> InterpPoint:
    coords = []
    for i, a in enumerate(alpha, start=1):
        for nu in range(a):
            coords.append(u.mono(-1, {"q": -nu, "x%d" % i: -1}))
    return InterpPoint(tuple(alpha), tuple(coords))


def interp_assignment(u: VarUniverse, alpha: tuple) -> dict:
    """{y_j: j-th coordinate of p_alpha} for substitution into y variables."""
    pt = interp_point(u, alpha)
    if u.n_y < len(pt.coords):
        raise ValueError("universe has too few y variables for p_alpha")
    return {"y%d" % (j + 1): c for j, c in enumerate(pt.coords)}


def interp_product_closed(u: VarUniverse, gamma: tuple, alpha: tuple) -> MPoly:
    """prod_{i,j} (q^{gamma_i - alpha_j + 1} x_i/x_j)_{alpha_j}.

    This is the value of prod_{i,j} (1 + q^{gamma_i} x_i y_j) at y =
    p_alpha(x); it vanishes unless gamma >= alpha.
    """
    return mp_prod(u, double_poch_factors(u, gamma, alpha))


def interp_product_eval(gamma: tuple, alpha: tuple) -> Frac:
    """Evaluate prod (1 + q^{gamma_i} x_i y_j) at p_alpha two ways.

    Substitutes the interpolation point directly and verifies against the
    closed double-Pochhammer form; a mismatch means an implementation bug,
    so it raises rather than returning garbage.
    """
    if len(gamma) != len(alpha):
        raise ValueError("gamma and alpha must have the same length")
    n, m = len(gamma), mi_weight(alpha)
    uxy = universe(n, m)
    prod = cauchy_kernel(uxy).qshift(gamma)
    direct = prod.subs_monomials(interp_assignment(uxy, alpha))
    ux = universe(n)
    closed = interp_product_closed(ux, gamma, alpha)
    if direct.convert(ux) != closed:
        raise AssertionError("interpolation evaluation disagrees with closed form")
    return Frac(closed)


def interp_product_check(gamma: tuple, alpha: tuple) -> bool:
    """The product at p_alpha vanishes exactly when gamma >= alpha fails.

    interp_product_eval already raises if direct substitution and the closed
    form disagree; this adds the vanishing rule on top.
    """
    vanishes = interp_product_eval(gamma, alpha).is_zero()
    return vanishes == (not mi_leq(alpha, gamma))


# -- identity suite ----------------------------------------------------------------


@lru_cache(maxsize=None)
def graded_qbinom_sum(u: VarUniverse, alpha: tuple, w: int) -> Frac:
    """A_w(alpha) = sum of C[alpha,mu] over mu <= alpha with |mu| = w.

    Summed with the cancelling merge and brought to lowest terms
    (:meth:`Frac.lowest`; every bag factor of C[alpha,mu] is a +-1 binomial
    on q and x); zero when no mu has weight w.  Memoized per (universe,
    alpha, w); the identity checks call it in ``universe(len(alpha))`` only.
    """
    terms = [qbinom_x(u, alpha, mu) for mu in weak_compositions(w, len(alpha))
             if mi_leq(mu, alpha)]
    return frac_sum(u, terms, cancel=True).lowest()


def qbinom_theorem_diff(alpha: tuple) -> Frac:
    """sum_{beta<=alpha} (-1)^{|b|} q^C(|b|,2) C[alpha,beta] u^{|b|} - (u)_{|alpha|}.

    The sum is regrouped by w = |beta| as sum_w (-1)^w q^C(w,2) u^w A_w(alpha),
    each A_w (:func:`graded_qbinom_sum`) the exact sum of its C[alpha,beta],
    built in ``universe(n)`` and converted into the u-universe.
    """
    n = len(alpha)
    u, uu = universe(n), universe(n, u=True)
    terms = [graded_qbinom_sum(u, tuple(alpha), w).convert(uu) *
             uu.mono((-1) ** w, {"q": comb(w, 2), "u": w})
             for w in range(mi_weight(alpha) + 1)]
    rhs = qpoch(uu.gen("u"), mi_weight(alpha))
    return frac_sum(uu, terms) - rhs


def chu_vandermonde_diff(alpha: tuple, k: int) -> Frac:
    """First Chu-Vandermonde generalization at weight k.

    sum over mu <= alpha with |mu| = k of prod_j [alpha_j choose mu_j]_q
    times the i != j Pochhammer cross-ratios, minus [|alpha| choose k]_q.
    The x dependence must cancel exactly.
    """
    n = len(alpha)
    u = universe(n)
    terms = []
    for mu in weak_compositions(k, n):
        if not mi_leq(mu, alpha):
            continue
        num = [ordinary_qbinom(u, alpha[j], mu[j]) for j in range(n)]
        den = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                mj = mu[j - 1]
                num += _poch_family(u, alpha[i - 1] - mj + 1, i, j, 0, mj)
                den += _poch_family(u, mu[i - 1] - mj + 1, i, j, 0, mj)
        terms.append(Frac.from_factors(u, num, den))
    return frac_sum(u, terms) - ordinary_qbinom(u, mi_weight(alpha), k)


def chu_vandermonde2_diff(alpha: tuple, beta: tuple, k: int) -> Frac:
    """Second Chu-Vandermonde type: split sum over mu <= alpha, nu <= beta.

    sum q^{(|alpha|-|mu|)|nu|} C[alpha,mu] C[beta,nu] over |mu|+|nu| = k,
    minus [|alpha|+|beta| choose k]_q.  The exponent (|alpha|-|mu|)|nu| is
    forced by expanding (u)_{|a|+|b|} = (u)_{|a|} (u q^{|a|})_{|b|} and
    comparing u^k coefficients.  The double sum is regrouped by j = |mu| as
    sum_j q^{(|alpha|-j)(k-j)} A_j(alpha) A_{k-j}(beta), each A_w
    (:func:`graded_qbinom_sum`) the exact sum of its C terms.
    """
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must have the same length")
    n = len(alpha)
    u = universe(n)
    wa, wb = mi_weight(alpha), mi_weight(beta)
    terms = [graded_qbinom_sum(u, tuple(alpha), j) *
             graded_qbinom_sum(u, tuple(beta), k - j) *
             u.mono(1, {"q": (wa - j) * (k - j)})
             for j in range(max(0, k - wb), min(k, wa) + 1)]
    return frac_sum(u, terms) - ordinary_qbinom(u, wa + wb, k)


def qbinom_product_rule_diff(alpha: tuple, gamma: tuple, beta: tuple) -> Frac:
    """C[a,g] C[g,b] - C[a,b] * C[a-b, a-g](1/q^a x), for b <= g <= a.

    The substitution x_i -> 1/(q^{alpha_i} x_i) is an exact Laurent-monomial
    substitution.
    """
    if not (mi_leq(beta, gamma) and mi_leq(gamma, alpha)):
        raise ValueError("need beta <= gamma <= alpha")
    n = len(alpha)
    u = universe(n)
    lhs = qbinom_x(u, tuple(alpha), tuple(gamma)) * qbinom_x(u, tuple(gamma), tuple(beta))
    inner = qbinom_x(u, mi_sub(alpha, beta), mi_sub(alpha, gamma))
    subs = {"x%d" % i: u.mono(1, {"q": -alpha[i - 1], "x%d" % i: -1})
            for i in range(1, n + 1)}
    rhs = qbinom_x(u, tuple(alpha), tuple(beta)) * inner.subs_monomials(subs)
    return lhs - rhs
