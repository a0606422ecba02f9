"""Row-type raising operators for Macdonald integral forms.

The operator of weight m is assembled as  B_m = sum_{|alpha|=m} b_alpha *
phi_alpha  from closed forms: the block operators phi_alpha (signed q-power
times the generalized q-binomial coefficient) and the block coefficients
b_alpha (a beta-sum of Pochhammer ratios).  Two independent oracles shadow
these closed forms: the elimination recurrence rebuilds phi level by level,
and an interpolation evaluation of the dual-lowered Cauchy kernel
(1/(y1..ym)) D_y(1;t,q) prod (1+x_i y_j) rebuilds b.  Verification works
on the monomial basis: B_m m_mu is applied once per (m, mu, n) and certified
as a polynomial column in Z[q,t] by the certificate D_1 and D(u) share.
B_m acts only through those columns: the raising property and the iterated
build combine them with the integral forms' coordinates, and the kernel
identity with the kernel's coordinates e_lam(y).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .algebra import Frac, MPoly, VarUniverse, cauchy_kernel, frac_sum, universe
from .macdonald import (QDiffOp, certified_column, combine_columns, cross_term,
                        dual_lowering, expand_in_monomial_basis, from_monomial_basis,
                        macdonald_j, macdonald_p, x_transposition_rename)
from .partitions import (Partition, box_below, memo_per_partition, mi_leq,
                         mi_sub, mi_weight, multi_indices_upto, weak_compositions)
from .qbinomial import double_poch_factors, interp_assignment, qbinom_x


# -- the phi blocks -----------------------------------------------------------


def raising_block_entry(u: VarUniverse, alpha: tuple, beta: tuple) -> Frac:
    """Closed form of the block-operator coefficient at T^beta.

    (-1)^{|a|-|b|} q^{C(|a|-|b|+1, 2)} C[alpha, beta](x) for beta <= alpha.
    """
    d = mi_weight(alpha) - mi_weight(beta)
    c = qbinom_x(u, tuple(alpha), tuple(beta))
    return c * u.mono((-1) ** d, {"q": comb(d + 1, 2)})


def raising_block(u: VarUniverse, alpha: tuple) -> dict:
    """The block operator phi_alpha as a map beta -> coefficient."""
    return {tuple(beta): raising_block_entry(u, alpha, beta)
            for beta in box_below(alpha)}


def recurrence_weight(u: VarUniverse, m: int, alpha: tuple, beta: tuple) -> Frac:
    """Elimination weight q^{(|a|-|b|)(m-|b|)} C[alpha,beta](x)."""
    wa, wb = mi_weight(alpha), mi_weight(beta)
    return qbinom_x(u, tuple(alpha), tuple(beta)) * \
        u.mono(1, {"q": (wa - wb) * (m - wb)})


def raising_block_recurrence(u: VarUniverse, m: int, alpha: tuple) -> dict:
    """Oracle: rebuild phi_alpha by the level-by-level elimination recurrence.

    Starts from the bare shifts T^delta and, for l = 0..m-1, subtracts the
    weight-l blocks with their elimination weights.  Entirely independent of
    the closed form.
    """
    n = u.n_x
    if mi_weight(alpha) != m:
        raise ValueError("alpha must have weight m")
    ops = {tuple(d): {tuple(d): Frac(u.one())} for d in multi_indices_upto(m, n)}
    for level in range(m):
        nxt = {}
        for delta, coeffs in ops.items():
            if mi_weight(delta) <= level:
                continue
            acc = {b: [c] for b, c in coeffs.items()}
            for gamma in box_below(delta):
                if mi_weight(gamma) != level or gamma == delta:
                    continue
                psi = recurrence_weight(u, m, delta, gamma)
                for b, c in ops[gamma].items():
                    acc.setdefault(b, []).append(-(psi * c))
            nxt[delta] = {b: s for b, s in
                          ((b, frac_sum(u, parts)) for b, parts in acc.items())
                          if not s.is_zero()}
        ops = nxt
    return ops[tuple(alpha)]


# -- the m-independent ladder matrices ------------------------------------------


def ladder_g(u: VarUniverse, alpha: tuple, beta: tuple) -> Frac:
    """q^{-(|a|-|b|)|b|} C[alpha,beta](x), the m-stripped elimination weight."""
    wa, wb = mi_weight(alpha), mi_weight(beta)
    return qbinom_x(u, tuple(alpha), tuple(beta)) * \
        u.mono(1, {"q": -(wa - wb) * wb})


def _descending_chains(alpha: tuple, beta: tuple):
    """All strictly decreasing lattice paths alpha = g0 > g1 > ... > gr = beta."""
    if alpha == beta:
        yield (alpha,)
        return
    for mid in box_below(alpha):
        if mid != alpha and mi_leq(beta, mid):
            for rest in _descending_chains(mid, beta):
                yield (alpha,) + rest


def ladder_f_paths(u: VarUniverse, alpha: tuple, beta: tuple) -> Frac:
    """Path-sum definition of the inverse ladder matrix entry."""
    terms = []
    for chain in _descending_chains(tuple(alpha), tuple(beta)):
        r = len(chain) - 1
        prod = Frac(u.const((-1) ** r))
        for hi, lo in zip(chain, chain[1:]):
            prod = prod * ladder_g(u, hi, lo)
        terms.append(prod)
    return frac_sum(u, terms)


def ladder_f_closed(u: VarUniverse, alpha: tuple, beta: tuple) -> Frac:
    """Closed form (-1)^d q^{-C(d,2) - d|b|} C[alpha,beta](x), d = |a|-|b|."""
    d = mi_weight(alpha) - mi_weight(beta)
    return qbinom_x(u, tuple(alpha), tuple(beta)) * \
        u.mono((-1) ** d, {"q": -comb(d, 2) - d * mi_weight(beta)})


def ladder_inverse_check(alpha: tuple, beta: tuple) -> bool:
    """Path-sum f agrees with its closed form, and G * F~ = identity.

    For alpha > beta the convolution sum_{a>=g>=b} f~_{a,g} g_{g,b} must
    vanish; at alpha = beta both sides are 1.
    """
    n = len(alpha)
    u = universe(n)
    if not mi_leq(beta, alpha):
        raise ValueError("need beta <= alpha")
    if not ladder_f_paths(u, alpha, beta).eq(ladder_f_closed(u, alpha, beta)):
        return False
    conv = frac_sum(u, [ladder_f_closed(u, alpha, g) * ladder_g(u, g, beta)
                        for g in box_below(alpha) if mi_leq(beta, g)])
    if alpha == beta:
        return conv.eq(Frac(u.one()))
    return conv.is_zero()


# -- the b coefficients -----------------------------------------------------------


def block_coeff(u: VarUniverse, m: int, alpha: tuple) -> Frac:
    """Closed form of the coefficient b_alpha multiplying phi_alpha.

    q^{sum_i C(a_i,2)} x^alpha times a signed beta-sum of Pochhammer
    products; beta-terms whose numerator contains a vanishing factor are
    skipped outright.
    """
    n = u.n_x
    if mi_weight(alpha) != m:
        raise ValueError("alpha must have weight m")
    zero = (0,) * n
    terms = []
    for beta in box_below(alpha):
        wb = mi_weight(beta)
        rest = mi_sub(alpha, beta)
        num_factors = (double_poch_factors(u, zero, beta, e=1) +
                       double_poch_factors(u, zero, alpha, k=rest))
        den_factors = (double_poch_factors(u, beta, beta) +
                       double_poch_factors(u, alpha, alpha, k=rest))
        if any(f.is_zero() for f in num_factors):
            continue
        c = Frac.from_factors(u, num_factors, den_factors)
        terms.append(c * u.mono((-1) ** (m - wb), {"q": comb(wb, 2)}))
    pref = {"q": sum(comb(a, 2) for a in alpha)}
    pref.update({"x%d" % i: a for i, a in enumerate(alpha, start=1) if a})
    return (frac_sum(u, terms) * u.mono(1, pref)).shrink()


def block_coeff_interp(u: VarUniverse, m: int, alpha: tuple) -> Frac:
    """Oracle: b_alpha from the interpolation-point evaluation.

    Substitutes y = p_alpha into the dual-lowered Cauchy kernel
    (1/(y1..ym)) D_y(1;t,q) prod (1+x_i y_j) and divides by the vanishing
    double product.  Independent of the closed beta-sum.
    """
    n = u.n_x
    if mi_weight(alpha) != m:
        raise ValueError("alpha must have weight m")
    uxy = universe(n, m)
    at_p = lowered_kernel(m, n).subs_monomials(interp_assignment(uxy, alpha))
    bag = dict(at_p.bag)
    for f in double_poch_factors(uxy, alpha, alpha):
        bag[f] = bag.get(f, 0) + 1
    return Frac(at_p.num, bag).convert(u).shrink()


# -- assembly and verification ------------------------------------------------------


@lru_cache(maxsize=None)
def row_raising_op(m: int, n: int) -> QDiffOp:
    """The raising operator B_m on n variables, in the shift basis T^gamma.

    Expands sum_alpha b_alpha phi_alpha and combines coefficients with the
    cancelling sum, each stored in lowest terms (:meth:`Frac.lowest`), so the
    operator's bytes depend only on its value; memoized per (m, n).  Raises
    ValueError for m < 0, before anything is built or cached.
    """
    if m < 0:
        raise ValueError("the row length m must be >= 0, not %d" % m)
    u = universe(n)
    acc: dict = {}
    for alpha in weak_compositions(m, n):
        b = block_coeff(u, m, alpha)
        for beta, phi in raising_block(u, alpha).items():
            acc.setdefault(beta, []).append(b * phi)
    coeffs = {}
    for beta, parts in acc.items():
        c = frac_sum(u, parts, cancel=True).lowest()
        if not c.is_zero():
            coeffs[beta] = c
    return QDiffOp(u, coeffs)


@lru_cache(maxsize=None)
def raising_column(m: int, mu, n: int) -> dict:
    """B_m m_mu in the m basis of n variables: {nu: coefficient in Z[q, t]}.

    For mu_1 <= m the kernel identity makes B_m m_mu a polynomial: the
    kernel prod (1 + x_i y_j) over m y variables spans the s_lam(x) with
    lam_1 <= m, which is the span of the m_mu with mu_1 <= m (Macdonald,
    ch. I).  :func:`certified_column` certifies the image below (m) u mu
    sorted, and every coefficient must be free of negative q and t
    exponents, AssertionError otherwise.  Raises ValueError for m < 0 or
    mu_1 > m, before anything is built.  Memoized per (m, mu, n); the
    cached dict is never mutated.
    """
    mu = Partition(mu)
    if m < 0 or (mu and mu[0] > m):
        raise ValueError("B_m m_mu needs 0 <= mu_1 <= m, not m = %d, mu = (%s)"
                         % (m, mu.to_string()))
    top = Partition(sorted(mu + (m,), reverse=True))
    col = certified_column(row_raising_op(m, n), "B_%d" % m, mu, top)
    if any(c.min_exp("q") < 0 or c.min_exp("t") < 0 for c in col.values()):
        raise AssertionError("B_%d m_(%s) has a negative q or t exponent"
                             % (m, mu.to_string()))
    return col


def _raised(m: int, n: int):
    """The column map mu -> B_m m_mu, for :func:`combine_columns`."""
    return lambda mu: raising_column(m, mu, n)


def raising_diff(m: int, lam, n: int) -> Frac:
    """B_m J_lam minus its contract: J_{(m,lam)} below full length, 0 at it.

    Computed by linearity on the m-basis coordinates c_mu of J_lam: row nu
    of the difference is r_nu = sum_mu c_mu (B_m m_mu)_nu - J_{(m,lam)}[nu],
    without the J term at full length, with the columns from
    :func:`raising_column`.  The result is sum_nu r_nu m_nu over the rows
    that do not vanish, a polynomial, and exactly B_m J_lam minus the
    contract.
    """
    lam = Partition(lam)
    if lam and lam[0] > m:
        raise ValueError("the first row of lam may not exceed m")
    if lam.length() > n:
        raise ValueError("lam has more than n rows")
    target = macdonald_j(lam.prepend(m), n) if lam.length() < n else {}
    u = universe(n)
    return Frac(from_monomial_basis(u, combine_columns(u, macdonald_j(lam, n),
                                                       _raised(m, n), target)))


def iterated_build_diff(lam, n: int) -> Frac:
    """B_{lam_1} ... B_{lam_n}.1 - J_lam, applying right to left.

    The partial product is carried as m-basis coordinates, starting from
    {(): 1}, and raised through the certified columns of
    :func:`raising_column`: each partial product is a J whose first row is
    at most the next part, so every column it meets is a polynomial.  The
    last raising, by B_{lam_1}, is combined row by row with the coordinates
    of J_lam.
    """
    lam = Partition(lam)
    u = universe(n)
    first, *rest = lam.padded(n)
    coords = {Partition(): u.one()}
    for part in reversed(rest):
        coords = combine_columns(u, coords, _raised(part, n), {})
    return Frac(from_monomial_basis(u, combine_columns(u, coords, _raised(first, n),
                                                       macdonald_j(lam, n))))


@lru_cache(maxsize=None)
def raising_on_kernel(m: int, n: int) -> Frac:
    """B_m acting in x on the Cauchy kernel prod (1+x_i y_j); memoized per (m, n).

    By the dual Cauchy identity the kernel is sum_lam m_lam(x) e_lam(y) over
    lam_1 <= m (Macdonald, ch. I); :func:`expand_in_monomial_basis` reads
    these coordinates off and certifies them.  The image combines them with
    the certified columns of :func:`raising_column`, so it is a polynomial,
    returned as a fraction with an empty bag.
    """
    uxy = universe(n, m)

    def column(lam):
        return {nu: c.convert(uxy) for nu, c in raising_column(m, lam, n).items()}
    coords = expand_in_monomial_basis(cauchy_kernel(uxy))
    return Frac(from_monomial_basis(uxy, combine_columns(uxy, coords, column, {})))


@lru_cache(maxsize=None)
def lowered_kernel(m: int, n: int) -> Frac:
    """(1/(y1..ym)) D_y(1;t,q) prod (1+x_i y_j); memoized per (m, n)."""
    return dual_lowering(cauchy_kernel(universe(n, m)))


def key_identity_diff(m: int, n: int) -> Frac:
    """Difference of B_x prod(1+x_i y_j) and (1/(y1..ym)) D_y(1;t,q) of it."""
    return raising_on_kernel(m, n) - lowered_kernel(m, n)


def degree_bound_check(m: int, n: int) -> bool:
    """Each y_j degree of B_x prod(1+x_i y_j) is at most n-1.

    The image is a polynomial (:func:`raising_on_kernel`), so the bound is
    read off it.  Vacuous at m = 0 where no y variables occur.
    """
    img = raising_on_kernel(m, n).as_poly()
    return all(img.max_exp("y%d" % j) <= n - 1 for j in range(1, m + 1))


def equivariance_check(op: QDiffOp) -> bool:
    """Symmetric-group invariance: coeff(sg) with x permuted equals coeff(g)."""
    u = op.u
    n = u.n_x
    zero = Frac(u.zero())
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ren = x_transposition_rename(i, j)
            for gamma, c in op.coeffs.items():
                sg = list(gamma)
                sg[i - 1], sg[j - 1] = sg[j - 1], sg[i - 1]
                other = op.coeffs.get(tuple(sg), zero)
                if not other.convert(u, ren).eq(c):
                    return False
    return True


def order_bound_check(op: QDiffOp, m: int) -> bool:
    return all(mi_weight(g) <= m for g in op.coeffs)


# -- the Hall-Littlewood specialization ----------------------------------------------


def limit_q0(fr: Frac) -> Frac:
    """Exact limit q -> 0 of a fraction regular there.

    Pulls the monomial q-content out of numerator and denominator (minimum
    exponent, no GCD) and evaluates; raises on a genuine pole.
    """
    u = fr.u
    if fr.num.is_zero():
        return Frac(u.zero())
    num, den = fr.num, fr.den
    a, b = num.min_exp("q"), den.min_exp("q")
    if a < b:
        raise ZeroDivisionError("pole at q = 0")
    if a > b:
        return Frac(u.zero())
    return Frac.over(num.coeff_of({"q": a}), den.coeff_of({"q": b}))


@memo_per_partition
def hall_littlewood_p(lam, n: int) -> MPoly:
    """P_lam(x; 0, t) from P's m-coordinates at q -> 0, each certified in Z[t]; memoized."""
    return from_monomial_basis(universe(n), {mu: limit_q0(c).as_poly()
                                             for mu, c in macdonald_p(lam, n).items()})


def hall_littlewood_apply(m: int, f: MPoly) -> Frac:
    """(1-t) sum_i x_i^m prod_{j!=i} (x_i - t x_j)/(x_i - x_j) f|_{x_i=0}."""
    if m < 1:
        raise ValueError("the substitution operator needs m >= 1")
    u = f.u
    n = u.n_x
    terms = []
    for i in range(n):
        fi = f.coeff_of({"x%d" % (i + 1): 0})
        if fi.is_zero():
            continue
        num, bag = cross_term(u, [j for j in range(n) if j != i], [i])
        num = num.mono_mul(1, {"x%d" % (i + 1): m}) * (u.one() - u.gen("t")) * fi
        terms.append(Frac(num, bag))
    return frac_sum(u, terms)


def hall_littlewood_raising_scalar(m: int, lam, n: int):
    """Fit the proportionality scalar of the raised Hall-Littlewood image.

    Returns (image_poly, target_poly, scalar) for the length < n branch and
    (image, None, None) at full length where the image must vanish.
    """
    lam = Partition(lam)
    img = hall_littlewood_apply(m, hall_littlewood_p(lam, n))
    if lam.length() == n:
        return img, None, None
    target = hall_littlewood_p(lam.prepend(m), n)
    poly = img.as_poly()
    lead = {"x%d" % i: e for i, e in enumerate(lam.prepend(m).padded(n), start=1)}
    scalar = poly.coeff_of(lead)
    return Frac(poly), target, scalar


def hall_littlewood_raising_check(m: int, lam, n: int) -> bool:
    """The operator sends P_lam(0,t) to a nonzero Q(t) multiple of the raised P."""
    lam = Partition(lam)
    img, target, scalar = hall_littlewood_raising_scalar(m, lam, n)
    if target is None:
        return img.is_zero()
    return (not scalar.is_zero()) and img.eq(Frac(target * scalar))
