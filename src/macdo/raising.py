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
identity with the kernel's coordinates e_lam(y), against their lowerings.

B_m commutes with permuting x, so it is built once per S_n orbit: b_alpha
and the sum at T^beta are formed only for weakly decreasing alpha and beta,
and every other coefficient is its orbit representative's with x permuted,
brought back to lowest terms.  :func:`equivariance_check` compares those
with the direct sum, which permutes nothing.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .algebra import Frac, MPoly, VarUniverse, cauchy_kernel, frac_sum, universe
from .macdonald import (QDiffOp, certified_column, combine_columns, cross_term,
                        dual_lowering, expand_in_monomial_basis, from_monomial_basis,
                        macdonald_j, macdonald_p)
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
    (1/(y1..ym)) D_y(1;t,q) prod (1+x_i y_j), the rows of :func:`kernel_rows`
    multiplied out, and divides by the vanishing double product.
    Independent of the closed beta-sum.
    """
    n = u.n_x
    if mi_weight(alpha) != m:
        raise ValueError("alpha must have weight m")
    uxy = universe(n, m)
    lowered = from_monomial_basis(uxy, kernel_rows(m, n)[1])
    at_p = lowered.subs_monomials(interp_assignment(uxy, alpha))
    return Frac.from_factors(uxy, [at_p], double_poch_factors(uxy, alpha, alpha)) \
        .convert(u).shrink()


# -- assembly and verification ------------------------------------------------------


def _sorting_rename(gamma: tuple):
    """gamma sorted weakly decreasing, and the x rename that carries it back.

    Position k of the sorted tuple takes gamma's entry at order[k], so the
    rename x_{k+1} -> x_{order[k]+1} turns x^sorted into x^gamma.
    """
    order = sorted(range(len(gamma)), key=lambda i: -gamma[i])
    return (tuple(gamma[i] for i in order),
            {"x%d" % (k + 1): "x%d" % (i + 1) for k, i in enumerate(order)})


def _shift_coeff(u: VarUniverse, blocks, beta: tuple) -> Frac:
    """sum_alpha b_alpha phi_alpha[beta] over the (alpha, b_alpha) of ``blocks``.

    The cancelling sum, in lowest terms (:meth:`Frac.lowest`).
    """
    return frac_sum(u, [b * raising_block_entry(u, alpha, beta)
                        for alpha, b in blocks if mi_leq(beta, alpha)],
                    cancel=True).lowest()


@lru_cache(maxsize=None)
def row_raising_op(m: int, n: int) -> QDiffOp:
    """The raising operator B_m on n variables, in the shift basis T^gamma.

    Expands sum_alpha b_alpha phi_alpha once per S_n orbit.  B_m commutes
    with permuting x, so b_{sigma alpha} = sigma b_alpha and the coefficient
    of T^{sigma beta} is sigma c_beta.  :func:`block_coeff` is called only
    for weakly decreasing alpha and the others are permuted from it; the
    cancelling sum is formed only at weakly decreasing beta, in lowest terms
    (:meth:`Frac.lowest`), and every other c_beta is its orbit
    representative's coefficient with x permuted and brought back to lowest
    terms.  Lowest terms are unique, so each permuted coefficient has the
    bytes the direct sum at beta would give, and the operator's bytes depend
    only on its value.  Keys keep the order of the expansion, alpha
    reverse-lex and beta graded under each alpha.  Memoized per (m, n).
    Raises ValueError for m < 0, before anything is built or cached.
    """
    if m < 0:
        raise ValueError("the row length m must be >= 0, not %d" % m)
    u = universe(n)
    blocks, reps = [], {}
    for alpha in weak_compositions(m, n):
        rep, rename = _sorting_rename(alpha)
        if rep == alpha:
            b = reps[rep] = block_coeff(u, m, alpha)
        else:
            b = reps[rep].convert(u, rename)
        blocks.append((alpha, b))
    coeffs, sums = {}, {}
    for beta in dict.fromkeys(b for alpha in weak_compositions(m, n)
                              for b in box_below(alpha)):
        rep, rename = _sorting_rename(beta)
        if rep == beta:
            c = sums[rep] = _shift_coeff(u, blocks, beta)
        else:
            c = sums[rep].convert(u, rename).lowest()
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
def kernel_rows(m: int, n: int) -> tuple:
    """prod (1+x_i y_j) and L = (1/(y1..ym)) D_y(1;t,q) of it, in the m basis of x.

    Returns ({lam: e_lam(y)}, {lam: L e_lam(y) != 0}), memoized per (m, n): the kernel
    is sum_lam m_lam(x) e_lam(y) over lam_1 <= m (Macdonald, ch. I), certified by
    :func:`expand_in_monomial_basis`; L acts on y only, and ``as_poly`` certifies each row.
    """
    coords = expand_in_monomial_basis(cauchy_kernel(universe(n, m)))
    lowered = ((lam, dual_lowering(e).as_poly()) for lam, e in coords.items())
    return coords, {lam: r for lam, r in lowered if not r.is_zero()}


def _on_kernel(m: int, n: int, minus: dict) -> dict:
    """Rows nu of B_x prod (1+x_i y_j) - minus: sum_lam e_lam(y) (B_m m_lam)_nu - minus[nu]."""
    uxy = universe(n, m)
    return combine_columns(uxy, kernel_rows(m, n)[0], lambda lam: {
        nu: c.convert(uxy) for nu, c in raising_column(m, lam, n).items()}, minus)


def key_identity_diff(m: int, n: int) -> Frac:
    """Difference of B_x prod(1+x_i y_j) and (1/(y1..ym)) D_y(1;t,q) of it.

    Row nu is sum_lam e_lam(y) (B_m m_lam)_nu - L e_nu(y) (:func:`kernel_rows`);
    the m_nu(x) are independent, so the difference vanishes iff every row does.
    """
    return Frac(from_monomial_basis(universe(n, m), _on_kernel(m, n, kernel_rows(m, n)[1])))


def degree_bound_check(m: int, n: int) -> bool:
    """Each y_j degree of B_x prod(1+x_i y_j) is at most n-1.

    The m_nu(x) carry no y, so it is read off the rows; vacuous at m = 0 (no y).
    """
    return all(r.max_exp("y%d" % j) <= n - 1
               for r in _on_kernel(m, n, {}).values() for j in range(1, m + 1))


def equivariance_check(m: int, n: int) -> bool:
    """The orbit build of B_m agrees with the direct sum at every unsorted shift.

    For each beta that is not weakly decreasing, sums b_alpha phi_alpha[beta]
    over every alpha with b_alpha from :func:`block_coeff` (none permuted),
    brings it to lowest terms and compares it field for field with the stored
    coefficient of :func:`row_raising_op` (absent when the sum is 0).  The
    stored side is the representative's coefficient with x permuted, so this
    is S_n equivariance, c_{sigma beta}(x) = c_beta(sigma x), checked
    against an expansion that permutes nothing.
    """
    op = row_raising_op(m, n)
    u = op.u
    blocks = [(alpha, block_coeff(u, m, alpha)) for alpha in weak_compositions(m, n)]
    for beta in multi_indices_upto(m, n):
        if list(beta) == sorted(beta, reverse=True):
            continue
        want = _shift_coeff(u, blocks, beta)
        got = op.coeffs.get(beta)
        if got is None:
            if not want.is_zero():
                return False
        elif got.num.terms != want.num.terms or got.bag != want.bag:
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
